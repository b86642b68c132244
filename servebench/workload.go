package main

// The three traffic mixes. Each is a pure function of the seed: a
// stream of operations is drawn from its own rand.Source, keyed by the
// seed and a stream number (one per client, one for warm-up, one for
// the traced replay), so the same seed yields the same inputs. The
// server receives only the generated requests.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	ucqn "repro"
	"repro/internal/server"
)

// Stream numbers. Clients use 0..clients-1.
const (
	warmStream  = 100
	traceStream = 200
)

// workload is one traffic mix.
type workload struct {
	name string
	// persist backs the shared query cache with the persistence log.
	persist bool
	// traceOps is the traced replay's operation count.
	traceOps int
	// warmOps is the number of in-process operations, drawn from the
	// warm-up stream, that fill the caches before timing.
	warmOps int
	// build makes the tenants and, for fixed mixes, the ground truth.
	build func() *fixture
	// next draws operation seq of a stream.
	next func(fx *fixture, s *stream) op
}

var workloads = map[string]*workload{
	"hot-hits": {
		name:     "hot-hits",
		traceOps: 20000,
		build:    paperFixture,
		next:     nextMixOp(0),
	},
	"adhoc-plans": {
		name:     "adhoc-plans",
		traceOps: 1500,
		// Past both cache bounds (512 plans, 1024 answer entries), so
		// the window runs in the evicting steady state.
		warmOps: 1200,
		build: func() *fixture {
			fx := paperFixture()
			fx.mix, fx.truth = nil, nil
			return fx
		},
		next: nextAdhocOp,
	},
	"churn-eval": {
		name:     "churn-eval",
		persist:  true,
		traceOps: 400,
		build:    churnFixture,
		next:     nextMixOp(10),
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tenant is one served tenant's data.
type tenant struct {
	name string
	ps   *ucqn.PatternSet
	in   *ucqn.Instance
}

// fixture is a workload's tenants plus, for a fixed query mix, the
// ground truth per (tenant, query) in wire form.
type fixture struct {
	tenants []*tenant
	mix     []string
	truth   [][][][]string // [tenant][query] sorted wire rows
}

// op is one operation: a query, or an invalidation of the tenant.
type op struct {
	inval  bool
	tenant int
	qi     int // index into fixture.mix; -1 for generated queries
	query  string
	body   []byte // the JSON request
}

func (o op) String() string {
	if o.inval {
		return fmt.Sprintf("invalidate tenant-%d", o.tenant)
	}
	if o.qi >= 0 {
		return fmt.Sprintf("tenant-%d q%d %q", o.tenant, o.qi, o.query)
	}
	return fmt.Sprintf("tenant-%d %q", o.tenant, o.query)
}

// stream is one seeded operation sequence.
type stream struct {
	id   int
	seq  int
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newStream(fx *fixture, seed int64, id int) *stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
	s := &stream{id: id, rng: rng}
	if len(fx.mix) > 1 {
		s.zipf = rand.NewZipf(rng, 1.2, 1, uint64(len(fx.mix)-1))
	}
	return s
}

func (s *stream) draw(w *workload, fx *fixture) op {
	o := w.next(fx, s)
	s.seq++
	req := server.Request{Tenant: fx.tenants[o.tenant].name, Query: o.query}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings always marshal
	}
	o.body = body
	return o
}

// mixOp is query qi of a fixed mix on tenant t.
func mixOp(fx *fixture, t, qi int) op {
	body, err := json.Marshal(server.Request{Tenant: fx.tenants[t].name, Query: fx.mix[qi]})
	if err != nil {
		panic(err) // strings always marshal
	}
	return op{tenant: t, qi: qi, query: fx.mix[qi], body: body}
}

// nextMixOp draws from a fixed Zipf(1.2) mix over a uniformly chosen
// tenant; with invalEvery > 0, every invalEvery-th operation of the
// stream invalidates a random tenant instead.
func nextMixOp(invalEvery int) func(*fixture, *stream) op {
	return func(fx *fixture, s *stream) op {
		t := s.rng.Intn(len(fx.tenants))
		if invalEvery > 0 && s.seq%invalEvery == invalEvery-1 {
			return op{inval: true, tenant: t, qi: -1}
		}
		qi := int(s.zipf.Uint64())
		return op{tenant: t, qi: qi, query: fx.mix[qi]}
	}
}

// paperFixture is server.PaperTenants(3) — 6-row tenants over
// R^oo S^io L^o — with its 8-query mix, α-renamed aliases included.
func paperFixture() *fixture {
	fx := &fixture{}
	for i, tf := range server.PaperTenants(3) {
		fx.tenants = append(fx.tenants, &tenant{name: tf.Name, ps: tf.Patterns, in: tf.Instance})
		if i == 0 {
			fx.mix = tf.Queries
		}
		var truth [][][]string
		for _, rel := range tf.Expected {
			truth = append(truth, wire(rel))
		}
		fx.truth = append(fx.truth, truth)
	}
	return fx
}

// E25-shaped churn data: a three-way join whose intermediate binding
// sets dwarf both the source traffic and the answers, with a quarter of
// the join keys negated.
const (
	churnPatterns = `R^ooooooo S^io T^io N^i`
	churnRows     = 4000
	churnKeys     = 20
	churnFanout   = 8
)

// churnMix is four small-answer queries over the E25 join: the E25
// query, two projections of it, and a two-disjunct union whose first
// disjunct is the E25 query (so the answer cache can reuse it per
// disjunct).
var churnMix = []string{
	`Q(z, y) :- R(x, a, b, c, d, e, z), S(z, w), T(w, y), not N(z).`,
	`Q(z) :- R(x, a, b, c, d, e, z), S(z, w), T(w, y), not N(z).`,
	`Q(y) :- R(x, a, b, c, d, e, z), S(z, w), T(w, y), not N(z).`,
	`Q(z, y) :- R(x, a, b, c, d, e, z), S(z, w), T(w, y), not N(z). Q(z, y) :- R(x, a, b, c, d, e, z), S(z, y), N(z).`,
}

func churnFixture() *fixture {
	ps := ucqn.MustParsePatterns(churnPatterns)
	fx := &fixture{mix: churnMix}
	for t := 0; t < 3; t++ {
		in := ucqn.NewInstance()
		v := func(prefix string, n int) string { return fmt.Sprintf("t%d%s%d", t, prefix, n) }
		for i := 0; i < churnRows; i++ {
			in.MustAdd("R", v("x", i), v("a", i%7), v("b", i%11), v("c", i%13), v("d", i%3), v("e", i%5), v("z", i%churnKeys))
		}
		for z := 0; z < churnKeys; z++ {
			for j := 0; j < churnFanout; j++ {
				in.MustAdd("S", v("z", z), v("w", j))
			}
		}
		for j := 0; j < churnFanout; j++ {
			in.MustAdd("T", v("w", j), v("y", j))
		}
		for z := 0; z < churnKeys; z += 4 {
			in.MustAdd("N", v("z", z))
		}
		fx.tenants = append(fx.tenants, &tenant{name: fmt.Sprintf("tenant-%d", t), ps: ps, in: in})
		var truth [][][]string
		for _, q := range churnMix {
			rows, err := groundTruth(q, in)
			if err != nil {
				panic(err) // the mix is fixed; a failure is a bug
			}
			truth = append(truth, rows)
		}
		fx.truth = append(fx.truth, truth)
	}
	return fx
}

// adhocPatterns is the access-pattern set every generated query must be
// orderable under (the paper fixture's).
var adhocPatterns = ucqn.MustParsePatterns(server.FixturePatterns)

// nextAdhocOp draws a query never seen before. Its fresh constant is
// the stream number and sequence, so no two operations of a run share
// a canonical key.
func nextAdhocOp(fx *fixture, s *stream) op {
	t := s.rng.Intn(len(fx.tenants))
	q := adhocQuery(s.rng, fmt.Sprintf("k%d_%d", s.id, s.seq))
	parsed, err := ucqn.ParseQuery(q)
	if err != nil {
		panic(fmt.Sprintf("adhoc generator produced an unparsable query %q: %v", q, err))
	}
	if !ucqn.Orderable(parsed, adhocPatterns) {
		panic(fmt.Sprintf("adhoc generator produced a query not orderable under %s: %q", server.FixturePatterns, q))
	}
	return op{tenant: t, qi: -1, query: q}
}

// adhocQuery is one or two disjuncts, each an R/S join chain of 2–5
// atoms plus a redundant padding literal (so minimization has work), an
// optional `not L(x)`, and a negated ground literal over a fresh
// constant (always true on the data, so it changes the canonical key
// and not the answer).
func adhocQuery(r *rand.Rand, tag string) string {
	var rules []string
	for d, n := 0, 1+r.Intn(2); d < n; d++ {
		rules = append(rules, adhocRule(r, string(rune('x'+d)), fmt.Sprintf("%s_%d", tag, d)))
	}
	return strings.Join(rules, " ")
}

func adhocRule(r *rand.Rand, prefix, fresh string) string {
	type atom struct{ pred, a, b string }
	nvars := 0
	newVar := func() string {
		nvars++
		return fmt.Sprintf("%s%d", prefix, nvars-1)
	}
	head, cur := newVar(), newVar()
	atoms := []atom{{"R", head, cur}}
	// cur walks the chain: an R object (a join key, joinable by R's
	// object column or by S) or an R subject (joinable by R's subject).
	curIsKey := true
	for n := 2 + r.Intn(4); len(atoms) < n; {
		next := newVar()
		switch {
		case curIsKey && len(atoms) == n-1 && r.Intn(2) == 0:
			atoms = append(atoms, atom{"S", cur, next})
		case curIsKey:
			atoms = append(atoms, atom{"R", next, cur})
			curIsKey = false
		default:
			atoms = append(atoms, atom{"R", cur, next})
			curIsKey = true
		}
		cur = next
	}
	// Padding: a copy of a random atom with its second argument replaced
	// by a fresh variable. It maps onto the original, so it is
	// redundant; it keeps its first argument so S stays callable.
	p := atoms[r.Intn(len(atoms))]
	atoms = append(atoms, atom{p.pred, p.a, newVar()})
	// Every disjunct of a union shares the head Q(h, t).
	name := func(v string) string {
		switch v {
		case head:
			return "h"
		case cur:
			return "t"
		}
		return v
	}
	var body []string
	for _, a := range atoms {
		body = append(body, fmt.Sprintf("%s(%s, %s)", a.pred, name(a.a), name(a.b)))
	}
	if r.Intn(2) == 0 {
		body = append(body, "not L(h)")
	}
	body = append(body, fmt.Sprintf("not L(%q)", fresh))
	return fmt.Sprintf("Q(h, t) :- %s.", strings.Join(body, ", "))
}

// truthFor is the ground truth of a query operation: precomputed for a
// fixed mix, evaluated naively for a generated query.
func (fx *fixture) truthFor(o op) ([][]string, error) {
	if o.qi >= 0 {
		return fx.truth[o.tenant][o.qi], nil
	}
	return groundTruth(o.query, fx.tenants[o.tenant].in)
}

// groundTruth evaluates q naively over the instance and returns the
// answer in wire form (rows sorted like server responses).
func groundTruth(q string, in *ucqn.Instance) ([][]string, error) {
	parsed, err := ucqn.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	res, err := ucqn.Exec(context.Background(), parsed, nil, nil, ucqn.WithNaive(in))
	if err != nil {
		return nil, err
	}
	rel, err := res.Rel()
	if err != nil {
		return nil, err
	}
	return wire(rel), nil
}

// wire renders a relation the way server responses carry it: rows in
// Rel.Sorted order, nulls as "null".
func wire(rel *ucqn.Rel) [][]string {
	out := make([][]string, 0, rel.Len())
	for _, row := range rel.Sorted() {
		r := make([]string, len(row))
		for i, v := range row {
			if v.Null {
				r[i] = "null"
			} else {
				r[i] = v.S
			}
		}
		out = append(out, r)
	}
	return out
}
