package qcache

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/containment"
	"repro/internal/logic"
	"repro/internal/minimize"
)

// sigPreds is the random generator's vocabulary: binary R and T, unary
// S, so self-joins are frequent.
var sigPreds = []struct {
	name  string
	arity int
}{{"R", 2}, {"S", 1}, {"T", 2}}

// randTerm draws a variable from vars or, with probability pConst, one
// of two constants.
func randTerm(r *rand.Rand, vars []string, pConst float64) logic.Term {
	if r.Float64() < pConst {
		return logic.Const([]string{"a", "b"}[r.Intn(2)])
	}
	return logic.Var(vars[r.Intn(len(vars))])
}

func randAtom(r *rand.Rand, vars []string, pConst float64) logic.Atom {
	p := sigPreds[r.Intn(len(sigPreds))]
	args := make([]logic.Term, p.arity)
	for i := range args {
		args[i] = randTerm(r, vars, pConst)
	}
	return logic.NewAtom(p.name, args...)
}

// randCQ draws a safe CQ¬ rule with the given head arity: 1–4 positive
// atoms (self-joins, constants), every head variable covered, and 0–2
// negated atoms over the positive variables and the constants.
func randCQ(r *rand.Rand, arity int) logic.CQ {
	vars := []string{"x0", "x1", "x2", "x3"}
	q := logic.CQ{HeadPred: canonHeadPred}
	for i := 0; i < arity; i++ {
		q.HeadArgs = append(q.HeadArgs, logic.Var(vars[i]))
	}
	for n := 1 + r.Intn(4); n > 0; n-- {
		q.Body = append(q.Body, logic.Pos(randAtom(r, vars, 0.25)))
	}
	covered := map[string]bool{}
	for _, l := range q.Body {
		for _, v := range l.Vars() {
			covered[v.Name] = true
		}
	}
	for _, h := range q.HeadArgs {
		if !covered[h.Name] {
			q.Body = append(q.Body, logic.Pos(logic.NewAtom("T", h, randTerm(r, vars, 0.5))))
			covered[h.Name] = true
		}
	}
	var posVars []string
	for _, v := range vars {
		if covered[v] {
			posVars = append(posVars, v)
		}
	}
	for n := r.Intn(3); n > 0; n-- {
		q.Body = append(q.Body, logic.Neg(randAtom(r, posVars, 0.35)))
	}
	return q
}

// variant returns a rule equivalent to q that is usually not
// isomorphic to it: variables renamed, the body shuffled, and
// redundant padding — a copy of a positive atom with a non-head
// variable replaced by a fresh one, or a duplicated literal.
func variant(r *rand.Rand, q logic.CQ) logic.CQ {
	head := map[string]bool{}
	for _, t := range q.HeadArgs {
		head[t.Name] = true
	}
	v := q.Clone()
	if pos := v.Positive(); len(pos) > 0 && r.Intn(3) > 0 {
		pad := pos[r.Intn(len(pos))].Clone()
		for j, t := range pad.Atom.Args {
			if t.IsVar() && !head[t.Name] {
				pad.Atom.Args[j] = logic.Var("pad")
				break
			}
		}
		v.Body = append(v.Body, pad)
	}
	if r.Intn(4) == 0 {
		v.Body = append(v.Body, v.Body[r.Intn(len(v.Body))].Clone())
	}
	r.Shuffle(len(v.Body), func(i, j int) { v.Body[i], v.Body[j] = v.Body[j], v.Body[i] })
	rename := logic.NewSubst()
	for i, t := range v.Vars() {
		rename[t.Name] = logic.Var(fmt.Sprintf("v%d", (i*7+3)%11))
	}
	v.HeadArgs = rename.Atom(v.Head()).Args
	for i := range v.Body {
		v.Body[i].Atom = rename.Atom(v.Body[i].Atom)
	}
	return v
}

// coreOf is the canonical minimized core the plan builder stores.
func coreOf(q logic.CQ) logic.CQ { return containment.Canonicalize(minimize.CQ(q)) }

// unsatOf makes q unsatisfiable without turning it into False: it adds
// the complement of one of its positive literals.
func unsatOf(r *rand.Rand, q logic.CQ) logic.CQ {
	u := q.Clone()
	pos := u.Positive()
	u.Body = append(u.Body, pos[r.Intn(len(pos))].Complement())
	return containment.Canonicalize(u)
}

// The signature is a necessary condition for equivalence: whenever the
// budgeted mutual containment check (with a generous budget) calls two
// same-arity cores equivalent, their signatures are equal.
func TestEquivSigNecessary(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var equiv, nonIso, unsat int
	check := func(kind string, a, b logic.CQ) {
		t.Helper()
		budget := 1 << 20
		if !equivalentWithin(a, b, &budget) {
			return
		}
		equiv++
		if a.String() != b.String() {
			nonIso++
		}
		if !containment.Satisfiable(a) {
			unsat++
		}
		if sa, sb := equivSig(a), equivSig(b); sa != sb {
			t.Fatalf("%s: equivalent cores with different signatures\n  %s  sig %s\n  %s  sig %s", kind, a, sa, b, sb)
		}
	}
	for i := 0; i < 300; i++ {
		arity := 1 + r.Intn(2)
		base := randCQ(r, arity)
		v := variant(r, base)
		// A core against a (usually non-minimal) equivalent variant,
		// and against the variant's own core.
		check("variant", coreOf(base), containment.Canonicalize(v))
		check("variant core", coreOf(base), coreOf(v))
		// Independent draws over a small vocabulary: occasionally
		// equivalent by chance, mostly not.
		check("random", coreOf(randCQ(r, arity)), coreOf(randCQ(r, arity)))
		// Unsatisfiable cores that are not False.
		check("unsat", unsatOf(r, base), unsatOf(r, randCQ(r, arity)))
	}
	if equiv < 600 || nonIso < 100 || unsat < 250 {
		t.Fatalf("generator too weak: %d equivalent pairs, %d non-isomorphic, %d unsatisfiable", equiv, nonIso, unsat)
	}
}

// Hand-picked signature facts: what the signature separates and what
// it must not.
func TestEquivSigExamples(t *testing.T) {
	sig := func(src string) string {
		cq := q(t, src).Rules[0]
		cq.HeadPred = canonHeadPred
		return equivSig(containment.Canonicalize(cq))
	}
	same := [][2]string{
		{`Q(x) :- R(x, y), R(x, z).`, `Q(u) :- R(u, w).`},
		{`Q(x) :- R(x, "a"), not S("b").`, `Q(y) :- not S("b"), R(y, "a"), R(y, "a").`},
		{`Q(x) :- R(x, y), not R(x, y).`, `Q(x) :- S(x), not S(x).`},
	}
	for _, p := range same {
		if a, b := sig(p[0]), sig(p[1]); a != b {
			t.Errorf("signatures differ: %s → %s, %s → %s", p[0], a, p[1], b)
		}
	}
	differ := [][2]string{
		{`Q(x) :- R(x, y), not S("a").`, `Q(x) :- R(x, y), not S("b").`},
		{`Q(x) :- R(x, "a").`, `Q(x) :- R(x, y), not S("a").`},
		{`Q(x) :- R(x, y).`, `Q(x) :- T(x, y).`},
		{`Q(x) :- R(x, y), not R(x, y).`, `Q(x, y) :- R(x, y), not R(x, y).`},
		{`Q(x) :- R(x, "a,b").`, `Q(x) :- R(x, "a"), R(x, "b").`},
	}
	for _, p := range differ {
		if a, b := sig(p[0]), sig(p[1]); a == b {
			t.Errorf("signatures collide: %s and %s → %s", p[0], p[1], a)
		}
	}
}

// linearEquivScanLocked is the equivalence scan as it was before answer
// entries were bucketed by signature: walk the whole answer LRU and
// test every fresh same-fingerprint, same-arity entry. It is the
// differential reference for equivScanLocked.
func (c *Cache) linearEquivScanLocked(want logic.CQ, catFP string, budget *int) *ansEntry {
	if c.opt.EquivScanLimit < 0 || *budget <= 0 {
		return nil
	}
	tried := 0
	for elem := c.ansLRU.Front(); elem != nil; elem = elem.Next() {
		a := elem.Value.(*ansEntry)
		if a.catFP != catFP || len(a.core.HeadArgs) != len(want.HeadArgs) || !c.fresh(a.created) {
			continue
		}
		if tried >= c.opt.EquivScanLimit || *budget <= 0 {
			return nil
		}
		tried++
		if equivalentWithin(want, a.core, budget) {
			return a
		}
	}
	return nil
}

// checkBucketsLocked asserts that the bucket index mirrors the answer
// LRU exactly: no empty bucket, every bucket element an ansLRU element
// whose entry points back at it and belongs to that bucket, in LRU
// order, and the bucket sizes summing to ansLRU.Len(). c.mu held.
func checkBucketsLocked(t *testing.T, c *Cache) {
	t.Helper()
	rank := map[*list.Element]int{}
	for elem, i := c.ansLRU.Front(), 0; elem != nil; elem, i = elem.Next(), i+1 {
		rank[elem] = i
	}
	total := 0
	for bk, bucket := range c.buckets {
		if bucket.Len() == 0 {
			t.Fatalf("empty bucket %q retained", bk)
		}
		total += bucket.Len()
		last := -1
		for be := bucket.Front(); be != nil; be = be.Next() {
			elem := be.Value.(*list.Element)
			r, ok := rank[elem]
			if !ok {
				t.Fatalf("bucket %q holds a dangling element", bk)
			}
			a := elem.Value.(*ansEntry)
			if a.inBucket != be || a.bucket != bucket || bucketKey(a.catFP, a.sig) != bk {
				t.Fatalf("entry %q is indexed under the wrong bucket", a.key)
			}
			if r <= last {
				t.Fatalf("bucket %q is not in LRU order", bk)
			}
			last = r
		}
	}
	if total != c.ansLRU.Len() {
		t.Fatalf("bucket sizes sum to %d, ansLRU holds %d", total, c.ansLRU.Len())
	}
}

// Random install/touch/expire/lookup sequences: the bucketed scan finds
// an entry whenever the old linear scan does, spends no more budget
// when it does, and everything it returns is equivalent to the query.
func TestEquivScanMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// The core pool mixes minimized cores, their non-minimal equivalent
	// variants (different keys, same answers: the scan's reason to
	// exist), and unsatisfiable cores.
	var pool []logic.CQ
	for len(pool) < 60 {
		arity := 1 + r.Intn(2)
		base := randCQ(r, arity)
		pool = append(pool, coreOf(base), containment.Canonicalize(variant(r, base)))
		if r.Intn(4) == 0 {
			pool = append(pool, unsatOf(r, base))
		}
	}
	now := time.Unix(0, 0)
	c := New(Options{
		MaxAnswerEntries: 24,
		EquivScanLimit:   6,
		TTL:              time.Minute,
		Now:              func() time.Time { return now },
	})
	fps := []string{"1:1", "1:2"}
	var found, linearFound int
	c.mu.Lock()
	defer c.mu.Unlock()
	for step := 0; step < 4000; step++ {
		switch op := r.Intn(10); {
		case op < 4:
			installCore(c, pool[r.Intn(len(pool))], fps[r.Intn(len(fps))], now)
		case op < 5:
			if elem := c.answers[pool[r.Intn(len(pool))].String()+"\x1f"+fps[r.Intn(len(fps))]]; elem != nil {
				c.touchAnswerLocked(elem)
			}
		case op < 6:
			now = now.Add(time.Duration(r.Intn(20)) * time.Second)
		default:
			want := pool[r.Intn(len(pool))]
			fp := fps[r.Intn(len(fps))]
			budget := []int{40, 400, 20000}[r.Intn(3)]
			linBudget, bktBudget := budget, budget
			lin := c.linearEquivScanLocked(want, fp, &linBudget)
			bkt := c.equivScanLocked(want, equivSig(want), fp, &bktBudget)
			if lin != nil {
				linearFound++
				if bkt == nil {
					t.Fatalf("step %d: linear scan found %s for %s, bucketed scan found nothing", step, lin.core, want)
				}
				if bktBudget < linBudget {
					t.Fatalf("step %d: bucketed scan spent %d nodes, linear %d", step, budget-bktBudget, budget-linBudget)
				}
			}
			if bkt != nil {
				found++
				generous := 1 << 20
				if bkt.catFP != fp || !c.fresh(bkt.created) || !equivalentWithin(want, bkt.core, &generous) {
					t.Fatalf("step %d: bucketed scan returned %s for %s", step, bkt.core, want)
				}
			}
		}
		checkBucketsLocked(t, c)
	}
	if linearFound < 50 || found < linearFound {
		t.Fatalf("weak sequence: linear scan found %d, bucketed %d", linearFound, found)
	}
}
