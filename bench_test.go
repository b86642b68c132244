package ucqn

// One testing.B benchmark per experiment of DESIGN.md (E1–E23 and
// E25; E24 is the serving harness, cmd/ucqnload), plus
// microbenchmarks for the extension subsystems. `go test -bench=.
// -benchmem` regenerates every number; cmd/paperbench prints the same
// series as human-readable tables.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lichang"
	"repro/internal/logic"
	"repro/internal/sources"
	"repro/internal/workload"
)

// E1: ANSWERABLE on reversed chains (quadratic, Prop. 2).
func BenchmarkE1Answerable(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		q, ps := workload.ChainQuery(n)
		rev := workload.Reversed(q)
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.AnswerablePart(rev, ps)
			}
		})
	}
}

// E1: the orderability check (Cor. 3).
func BenchmarkE1Orderable(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		q, ps := workload.ChainQuery(n)
		rev := workload.Reversed(q)
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Orderable(rev, ps)
			}
		})
	}
}

// E2: PLAN* on reversed chains (quadratic).
func BenchmarkE2PlanStar(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		q, ps := workload.ChainQuery(n)
		rev := logic.AsUnion(workload.Reversed(q))
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ComputePlans(rev, ps)
			}
		})
	}
}

// E3: FEASIBLE on the hard case-split family (containment needed) vs the
// easy family (fast certificate).
func BenchmarkE3FeasibleHard(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		u, ps := workload.CaseSplitFamily(n)
		b.Run(fmt.Sprintf("split-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Feasible(u, ps)
			}
		})
	}
}

func BenchmarkE3FeasibleEasy(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		u, ps := workload.EasyFamily(n)
		b.Run(fmt.Sprintf("split-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Feasible(u, ps)
			}
		})
	}
}

// E4: ANSWER* end to end on the Example 4 view over random instances.
func BenchmarkE4AnswerStar(b *testing.B) {
	u := MustParseQuery(`
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := MustParsePatterns(`S^o R^oo B^oi T^oo`)
	s := workload.Schema{Relations: []workload.RelDef{
		{Name: "R", Arity: 2}, {Name: "S", Arity: 1}, {Name: "B", Arity: 2}, {Name: "T", Arity: 2},
	}}
	for _, tuples := range []int{10, 100} {
		g := workload.New(42)
		in := engine.NewInstance()
		if err := in.LoadFacts(g.Facts(s, tuples, tuples)); err != nil {
			b.Fatal(err)
		}
		cat := in.MustCatalog(ps)
		b.Run(fmt.Sprintf("tuples-%d", tuples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunAnswerStar(u, ps, cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E5: the paper's examples through FEASIBLE (the classification table).
func BenchmarkE5PaperExamples(b *testing.B) {
	for _, ex := range workload.PaperExamples() {
		b.Run(ex.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Feasible(ex.Query, ex.Patterns)
			}
		})
	}
}

// E6: the ans(Q)-minimality pipeline (generate, reorder, extend, check
// Q ⊑ ans(Q) ⊑ E).
func BenchmarkE6AnsMinimality(b *testing.B) {
	g := workload.New(7)
	s := g.Schema(4, 1, 2)
	ps := g.Patterns(s, 0.5, 2)
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := g.UCQ(s, 2, cfg)
		ordered, ok := core.ReorderUCQ(e, ps)
		if !ok {
			continue
		}
		q := logic.UCQ{Rules: []logic.CQ{ordered.Rules[0].Clone()}}
		q.Rules[0].Body = append(q.Rules[0].Body, g.CQ(s, cfg).Body...)
		a := core.AnswerableUCQ(q, ps).DropFalseRules()
		if a.HasNull() {
			continue
		}
		if !Contained(q, a) || !Contained(a, ordered) {
			b.Fatal("theorem 16 violated")
		}
	}
}

// E7: the five feasibility algorithms on the same UCQ workload.
func BenchmarkE7Baselines(b *testing.B) {
	g := workload.New(13)
	s := g.Schema(4, 1, 2)
	ps := g.Patterns(s, 0.55, 2)
	cfg := workload.QueryConfig{PosLits: 4, NegLits: 0, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	queries := make([]logic.UCQ, 64)
	for i := range queries {
		queries[i] = g.UCQ(s, 3, cfg)
	}
	b.Run("FEASIBLE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Feasible(queries[i%len(queries)], ps)
		}
	})
	b.Run("UCQstable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lichang.UCQStable(queries[i%len(queries)], ps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("UCQstable-star", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lichang.UCQStableStar(queries[i%len(queries)], ps); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E8: domain enumeration fixpoint cost.
func BenchmarkE8DomainEnum(b *testing.B) {
	for _, tuples := range []int{20, 100} {
		g := workload.New(21)
		s := workload.Schema{Relations: []workload.RelDef{
			{Name: "R", Arity: 2}, {Name: "S", Arity: 1}, {Name: "T", Arity: 2},
		}}
		in := engine.NewInstance()
		if err := in.LoadFacts(g.Facts(s, tuples, tuples/2)); err != nil {
			b.Fatal(err)
		}
		ps := MustParsePatterns(`R^oo S^o T^io`)
		cat := in.MustCatalog(ps)
		b.Run(fmt.Sprintf("tuples-%d", tuples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engine.EnumerateDomain(cat, nil, 1_000_000)
			}
		})
	}
}

// E9: satisfiability check (Prop. 8) on long bodies.
func BenchmarkE9Satisfiable(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		q, _ := workload.ChainQuery(n)
		q.Body = append(q.Body, logic.Neg(q.Body[0].Atom))
		u := logic.AsUnion(q)
		b.Run(fmt.Sprintf("lits-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Satisfiable(u)
			}
		})
	}
}

// E10: the Theorem 18 reduction pipeline (construct + decide).
func BenchmarkE10Reduction(b *testing.B) {
	g := workload.New(31)
	s := g.Schema(4, 1, 2)
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 0, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	ps := make([]logic.UCQ, 32)
	qs := make([]logic.UCQ, 32)
	for i := range ps {
		ps[i] = g.UCQ(s, 2, cfg)
		qs[i] = g.UCQ(s, 2, cfg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, q := ps[i%len(ps)], qs[i%len(qs)]
		red, rps, err := ReduceContToFeasible(p, q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := FeasibleLimited(red, rps, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// E11: the estimate ladder end to end (ANSWER* + domain improvement +
// ground truth).
func BenchmarkE11Ladder(b *testing.B) {
	g := workload.New(51)
	s := workload.Schema{Relations: []workload.RelDef{
		{Name: "R", Arity: 2}, {Name: "S", Arity: 1}, {Name: "B", Arity: 2}, {Name: "T", Arity: 2},
	}}
	u := MustParseQuery(`
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := MustParsePatterns(`S^o R^oo B^oi T^oo`)
	in := engine.NewInstance()
	if err := in.LoadFacts(g.Facts(s, 20, 10)); err != nil {
		b.Fatal(err)
	}
	cat := in.MustCatalog(ps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.RunAnswerStar(u, ps, cat)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := engine.ImproveUnder(res, ps, cat, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// E12: plan execution cost over metered sources as fan-out grows.
func BenchmarkE12SourceCalls(b *testing.B) {
	for _, n := range []int{2, 8} {
		q, ps := workload.StarQuery(n)
		in := engine.NewInstance()
		for x := 0; x < 40; x++ {
			xv := fmt.Sprintf("x%d", x)
			for i := 1; i <= n; i++ {
				in.MustAdd(fmt.Sprintf("R%d", i), xv, fmt.Sprintf("y%d_%d", i, x))
			}
			if x%2 == 0 {
				in.MustAdd("S", xv)
			}
		}
		cat := in.MustCatalog(ps)
		uq := logic.AsUnion(q)
		b.Run(fmt.Sprintf("fanout-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Answer(uq, ps, cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E13: compile-time semantic optimization under inclusion dependencies.
func BenchmarkE13SemanticOptimizer(b *testing.B) {
	u := MustParseQuery(`
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := MustParsePatterns(`S^o R^oo B^oi T^oo`)
	inds := MustParseINDs(`R[1] < S[0]`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := inds.Optimize(u)
		if !core.Feasible(opt, ps).Feasible {
			b.Fatal("optimized query must be feasible")
		}
	}
}

// E14: calls under ANSWERABLE order vs the call-minimizing order.
func BenchmarkE14OrderAblation(b *testing.B) {
	q := MustParseQuery(`Q(x, y) :- R1(x, w), R2(w, y), not L(x).`)
	ps := MustParsePatterns(`R1^oo R2^io L^i`)
	in := engine.NewInstance()
	for i := 0; i < 100; i++ {
		in.MustAdd("R1", fmt.Sprintf("x%d", i), fmt.Sprintf("w%d", i))
		in.MustAdd("R2", fmt.Sprintf("w%d", i), fmt.Sprintf("y%d", i))
		if i%10 != 0 {
			in.MustAdd("L", fmt.Sprintf("x%d", i))
		}
	}
	cat := in.MustCatalog(ps)
	ordered, _ := core.ReorderUCQ(q, ps)
	optimized, _ := core.OptimizeOrderUCQ(q, ps)
	b.Run("answerable-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Answer(ordered, ps, cat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimized-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Answer(optimized, ps, cat); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E15: acyclic containment fast path on the chain-into-tree family.
func BenchmarkE15AcyclicAblation(b *testing.B) {
	chain := func(n int) logic.CQ {
		q := logic.CQ{HeadPred: "Q"}
		for i := 0; i < n; i++ {
			q.Body = append(q.Body, logic.Pos(logic.NewAtom("E",
				logic.Var(fmt.Sprintf("x%d", i)), logic.Var(fmt.Sprintf("x%d", i+1)))))
		}
		return q
	}
	tree := func(depth int) logic.CQ {
		q := logic.CQ{HeadPred: "Q"}
		var rec func(node string, d int)
		rec = func(node string, d int) {
			if d == 0 {
				return
			}
			for _, side := range []string{"l", "r"} {
				child := node + side
				q.Body = append(q.Body, logic.Pos(logic.NewAtom("E", logic.Var(node), logic.Var(child))))
				rec(child, d-1)
			}
		}
		rec("t", depth)
		return q
	}
	for _, d := range []int{6, 8} {
		p := tree(d)
		q := logic.AsUnion(chain(d + 1))
		b.Run(fmt.Sprintf("fast-depth-%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				containment.NewChecker(q).Contains(p)
			}
		})
		b.Run(fmt.Sprintf("slow-depth-%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := containment.NewChecker(q)
				c.DisableAcyclic = true
				c.Contains(p)
			}
		})
	}
}

// E16: source-call caching on a join with repeated lookup keys.
func BenchmarkE16CacheAblation(b *testing.B) {
	q := MustParseQuery(`Q(x, y) :- R(x, z), T(z, y).`)
	ps := MustParsePatterns(`R^oo T^io`)
	in := engine.NewInstance()
	for i := 0; i < 200; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%10))
	}
	for z := 0; z < 10; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}
	b.Run("plain", func(b *testing.B) {
		cat := in.MustCatalog(ps)
		for i := 0; i < b.N; i++ {
			if _, err := engine.Answer(q, ps, cat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cat, _, err := CachedCatalog(in.MustCatalog(ps))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := engine.Answer(q, ps, cat); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E17: greedy vs cost-based join order, measured in real source calls.
func BenchmarkE17CostOrder(b *testing.B) {
	q := MustParseQuery(`Q(x) :- Big(x, w), Small(x, v).`)
	ps := MustParsePatterns(`Big^oo Big^io Small^oo Small^io`)
	in := engine.NewInstance()
	for i := 0; i < 500; i++ {
		in.MustAdd("Big", fmt.Sprintf("x%d", i), fmt.Sprintf("w%d", i))
	}
	for i := 0; i < 5; i++ {
		in.MustAdd("Small", fmt.Sprintf("x%d", i), fmt.Sprintf("v%d", i))
	}
	st := core.StatsFromCardinalities(map[string]int{"Big": 500, "Small": 5})
	greedy, _ := core.OptimizeOrderUCQ(q, ps)
	costed, _ := core.CostOrderUCQ(q, ps, st)
	cat := in.MustCatalog(ps)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Answer(greedy, ps, cat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cost-based", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Answer(costed, ps, cat); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// GAV unfolding microbenchmark (mediator front end, Section 6).
func BenchmarkMediatorUnfold(b *testing.B) {
	v := NewViews()
	if err := v.Add(MustParseQuery("G(x, y) :- S(x, z), T(z, y).\nG(x, y) :- D(x, y).")); err != nil {
		b.Fatal(err)
	}
	if err := v.Add(MustParseQuery(`M(x) :- W(x).`)); err != nil {
		b.Fatal(err)
	}
	q := MustParseQuery(`Q(a) :- G(a, c), G(c, d), not M(d).`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Unfold(q); err != nil {
			b.Fatal(err)
		}
	}
}

// E18: adornment strategy (selection pushdown) measured in transferred
// tuples.
func BenchmarkE18AdornStrategy(b *testing.B) {
	q := MustParseRule(`Q(x, y) :- R(x, z), T(z, y).`)
	ps := MustParsePatterns(`R^oo T^io T^oo`)
	in := engine.NewInstance()
	for i := 0; i < 10; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i))
	}
	for i := 0; i < 1000; i++ {
		in.MustAdd("T", fmt.Sprintf("z%d", i), fmt.Sprintf("y%d", i))
	}
	cat := in.MustCatalog(ps)
	for _, strat := range []struct {
		name string
		s    access.AdornStrategy
	}{{"pushdown", access.PreferMostInputs}, {"scan", access.PreferFewestInputs}} {
		steps, ok := access.AdornInOrderPrefer(q.Body, ps, strat.s)
		if !ok {
			b.Fatal("not executable")
		}
		b.Run(strat.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.AnswerSteps(q, steps, cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E19: the deduplicating concurrent runtime vs the historical
// per-binding loop. The benchmark asserts the acceptance property up
// front — strictly fewer source calls with an identical answer set —
// then times both runtimes.
func BenchmarkE19RuntimeDedup(b *testing.B) {
	q := MustParseQuery(`Q(x, y) :- R(x, z), T(z, y).`)
	ps := MustParsePatterns(`R^oo T^io`)
	in := engine.NewInstance()
	for i := 0; i < 400; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%10))
	}
	for z := 0; z < 10; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}

	seqCat := in.MustCatalog(ps)
	seqAns, err := SequentialRuntime().Answer(context.Background(), q, ps, seqCat)
	if err != nil {
		b.Fatal(err)
	}
	dedCat := in.MustCatalog(ps)
	dedAns, err := NewRuntime().Answer(context.Background(), q, ps, dedCat)
	if err != nil {
		b.Fatal(err)
	}
	if !seqAns.Equal(dedAns) {
		b.Fatal("answer sets differ between runtimes")
	}
	seqCalls, dedCalls := seqCat.TotalStats().Calls, dedCat.TotalStats().Calls
	if dedCalls >= seqCalls {
		b.Fatalf("dedup must issue strictly fewer calls: %d vs %d", dedCalls, seqCalls)
	}
	b.Logf("source calls: sequential=%d dedup=%d", seqCalls, dedCalls)

	for _, cfg := range []struct {
		name string
		rt   *Runtime
	}{{"sequential", SequentialRuntime()}, {"dedup", NewRuntime()}} {
		b.Run(cfg.name, func(b *testing.B) {
			cat := in.MustCatalog(ps)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cfg.rt.Answer(context.Background(), q, ps, cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E20: the streaming pipeline vs materializing evaluation over sources
// with a simulated network round trip. The benchmark asserts the
// acceptance properties up front — a byte-identical drained answer set,
// no increase in total source calls, and a strictly earlier first tuple
// — then times both modes end to end.
func BenchmarkE20StreamingPipeline(b *testing.B) {
	q := MustParseQuery(`Q(x, y) :- R(x, z), S(z, w), T(w, y).`)
	ps := MustParsePatterns(`R^oo S^io T^io`)
	in := engine.NewInstance()
	for i := 0; i < 120; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i))
		in.MustAdd("S", fmt.Sprintf("z%d", i), fmt.Sprintf("w%d", i))
		in.MustAdd("T", fmt.Sprintf("w%d", i), fmt.Sprintf("y%d", i))
	}
	rt := NewRuntime()
	rt.BatchSize = 16
	delayed := func() *Catalog {
		cat, err := DelayedCatalog(in.MustCatalog(ps), 200*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		return cat
	}

	matCat := delayed()
	matStart := time.Now()
	matAns, err := rt.Answer(context.Background(), q, ps, matCat)
	if err != nil {
		b.Fatal(err)
	}
	matElapsed := time.Since(matStart)

	strCat := delayed()
	strStart := time.Now()
	s, err := rt.Stream(context.Background(), q, ps, strCat)
	if err != nil {
		b.Fatal(err)
	}
	if !s.Next() {
		b.Fatalf("stream produced no tuples: %v", s.Err())
	}
	ttft := time.Since(strStart)
	strAns := engine.NewRel()
	strAns.Add(s.Tuple())
	for s.Next() {
		strAns.Add(s.Tuple())
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}

	matRows, strRows := matAns.Rows(), strAns.Rows()
	if len(matRows) != len(strRows) {
		b.Fatalf("answer counts differ: materialized=%d streamed=%d", len(matRows), len(strRows))
	}
	for i := range matRows {
		if matRows[i].Key() != strRows[i].Key() {
			b.Fatalf("row %d differs: materialized=%s streamed=%s", i, matRows[i], strRows[i])
		}
	}
	matCalls, strCalls := matCat.TotalStats().Calls, strCat.TotalStats().Calls
	if strCalls > matCalls {
		b.Fatalf("streaming must not issue more calls: %d vs %d", strCalls, matCalls)
	}
	if ttft >= matElapsed {
		b.Fatalf("first streamed tuple (%v) must beat the materialized total (%v)", ttft, matElapsed)
	}
	b.Logf("calls: materialized=%d streamed=%d; first tuple %v vs materialized total %v",
		matCalls, strCalls, ttft.Round(time.Microsecond), matElapsed.Round(time.Microsecond))

	b.Run("materialized", func(b *testing.B) {
		cat := delayed()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rt.Answer(context.Background(), q, ps, cat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streamed", func(b *testing.B) {
		cat := delayed()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := rt.Stream(context.Background(), q, ps, cat)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E21: graceful degradation with a dead source. The benchmark asserts
// the acceptance properties up front — partial mode answers with the
// healthy disjunct and names the dead source, strict mode errors, and
// the circuit breaker caps the dead source's traffic at its window
// instead of paying the full retry schedule in every disjunct that
// touches it — then times a degraded run with bare retries against one
// behind the breaker.
func BenchmarkE21Degradation(b *testing.B) {
	const deadRules = 8
	src := "Q(x) :- R(x).\n"
	for i := 0; i < deadRules; i++ {
		src += fmt.Sprintf("Q(x) :- S(%q, x).\n", fmt.Sprintf("c%d", i))
	}
	q := MustParseQuery(src)
	ps := MustParsePatterns(`R^o S^io`)
	in := NewInstance()
	for i := 0; i < 40; i++ {
		in.MustAdd("R", fmt.Sprintf("r%d", i))
	}
	rt := func() *Runtime {
		rt := NewRuntime()
		rt.Concurrency = 1 // deterministic call counts for the assertions
		rt.Retry.MaxAttempts = 4
		rt.Retry.BaseDelay = 0
		return rt
	}
	// bareKill rebuilds the catalog with S permanently failing and no
	// breaker: every binding pays the full retry schedule.
	bareKill := func() (*Catalog, *FlakySource) {
		base := in.MustCatalog(ps)
		var srcs []Source
		var flaky *FlakySource
		for _, name := range base.Names() {
			src := base.Source(name)
			if name == "S" {
				flaky = NewFlakySource(src, FlakyConfig{FailEveryN: 1})
				src = flaky
			}
			srcs = append(srcs, src)
		}
		cat, err := NewCatalog(srcs...)
		if err != nil {
			b.Fatal(err)
		}
		return cat, flaky
	}

	want, err := execAnswer(MustParseQuery(`Q(x) :- R(x).`), ps, in.MustCatalog(ps))
	if err != nil {
		b.Fatal(err)
	}

	// Strict mode must surface the failure.
	strictCat, _, _ := killSource(b, in, ps, "S")
	if _, err := Exec(context.Background(), q, ps, strictCat, WithRuntime(rt())); err == nil {
		b.Fatal("strict Exec must fail with a dead source")
	}

	// Bare retries: every distinct binding retries to exhaustion.
	bareCat, bareFlaky := bareKill()
	res, err := Exec(context.Background(), q, ps, bareCat, WithRuntime(rt()), WithPartialResults())
	if err != nil {
		b.Fatal(err)
	}
	if rel, err := res.Rel(); err != nil || !rel.Equal(want) {
		b.Fatalf("bare degraded answer = %v/%v, want the healthy disjunct's %s", rel, err, want)
	}
	bareCalls := bareFlaky.Injected()
	if min := deadRules * 4; bareCalls < min {
		b.Fatalf("bare retries absorbed %d dead-source calls, expected at least rules×attempts = %d", bareCalls, min)
	}

	// Breaker: the dead source's traffic is capped at the window.
	brkCat, brkFlaky, brk := killSource(b, in, ps, "S")
	res, err = Exec(context.Background(), q, ps, brkCat, WithRuntime(rt()), WithPartialResults())
	if err != nil {
		b.Fatal(err)
	}
	if rel, err := res.Rel(); err != nil || !rel.Equal(want) {
		b.Fatalf("breaker degraded answer = %v/%v, want the healthy disjunct's %s", rel, err, want)
	}
	inc, ok := res.Incompleteness()
	if !ok || inc.Complete() {
		b.Fatalf("incompleteness = %+v/%v, want the dropped disjunct recorded", inc, ok)
	}
	if got := inc.FailedSources(); len(got) != 1 || got[0] != "S" {
		b.Fatalf("FailedSources = %v, want [S]", got)
	}
	brkCalls := brkFlaky.Injected()
	if brkCalls > 4 {
		b.Fatalf("breaker let %d calls through, want at most its window (4)", brkCalls)
	}
	if brk.State() != BreakerOpen {
		b.Fatalf("breaker state = %v, want open", brk.State())
	}
	b.Logf("dead-source calls: bare=%d breaker=%d (window 4)", bareCalls, brkCalls)

	b.Run("bare-retries", func(b *testing.B) {
		cat, _ := bareKill()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := Exec(context.Background(), q, ps, cat, WithRuntime(rt()), WithPartialResults())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Rel(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("breaker", func(b *testing.B) {
		cat, _, _ := killSource(b, in, ps, "S")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := Exec(context.Background(), q, ps, cat, WithRuntime(rt()), WithPartialResults())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Rel(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Parallel vs sequential rule evaluation on a wide union.
func BenchmarkAnswerParallel(b *testing.B) {
	in := engine.NewInstance()
	var src, patSrc string
	for i := 0; i < 16; i++ {
		for j := 0; j < 200; j++ {
			in.MustAdd(fmt.Sprintf("R%d", i), fmt.Sprintf("v%d_%d", i, j))
		}
		src += fmt.Sprintf("Q(x) :- R%d(x).\n", i)
		patSrc += fmt.Sprintf("R%d^o ", i)
	}
	u := MustParseQuery(src)
	ps := MustParsePatterns(patSrc)
	cat := in.MustCatalog(ps)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Answer(u, ps, cat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.AnswerParallel(u, ps, cat); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Program compilation of a three-level hierarchy.
func BenchmarkProgramCompile(b *testing.B) {
	src := `
		L1(x) :- E1(x).
		L1(x) :- E2(x).
		L2(x) :- L1(x), E3(x).
		L3(x, y) :- L2(x), L2(y), E4(x, y).
	`
	parsed, err := ParseRules(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewProgram()
		for _, r := range parsed {
			if err := p.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := p.Compile("L3"); err != nil {
			b.Fatal(err)
		}
	}
}

// Chase-based satisfiability under a dependency chain.
func BenchmarkChaseSatisfiable(b *testing.B) {
	inds := MustParseINDs(`R[1] < S[0]; S[0] < T[0]`)
	q := MustParseRule(`Q(x) :- R(x, z), not T(z).`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inds.SatisfiableUnder(q) {
			b.Fatal("must be unsatisfiable under the chain")
		}
	}
}

// Witness construction and verification for a containment that needs
// the negative-literal recursion.
func BenchmarkExplainAndVerify(b *testing.B) {
	p := MustParseRule(`Q(x) :- R(x).`)
	q := MustParseQuery("Q(x) :- R(x), not S(x).\nQ(x) :- R(x), S(x).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, ok := ExplainContained(p, q)
		if !ok {
			b.Fatal("containment expected")
		}
		if err := VerifyWitness(p, q, w); err != nil {
			b.Fatal(err)
		}
	}
}

// Containment microbenchmarks: the Π₂ᴾ engine on its classic inputs.
func BenchmarkContainmentCQ(b *testing.B) {
	p := MustParseRule(`Q(x) :- E(x, y), E(y, z), E(z, x).`)
	q := MustParseQuery(`Q(x) :- E(x, y), E(y, z).`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Contained(logic.AsUnion(p), q)
	}
}

func BenchmarkContainmentCaseSplit(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		u, _ := workload.CaseSplitFamily(n)
		p := MustParseRule(`Q(x) :- R(x).`)
		b.Run(fmt.Sprintf("split-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Contained(logic.AsUnion(p), u)
			}
		})
	}
}

// e22Query is one distinct request of the E22 Zipf workload: a query
// variant plus the index of the paper-example catalog it runs against.
type e22Query struct {
	q  Query
	ps *PatternSet
	ci int
}

// e22Workload builds the distinct request pool: every paper example's
// executable form together with its α-renamed and literal-padded
// variants (textually different, semantically identical — the plan
// cache must collapse them), deterministically shuffled so the Zipf
// head is not biased toward one example.
func e22Workload() ([]e22Query, int) {
	var out []e22Query
	examples := 0
	for _, ex := range workload.PaperExamples() {
		u, ok := smokeQuery(ex)
		if !ok {
			continue
		}
		for _, v := range cacheVariants(u, "z") {
			out = append(out, e22Query{q: v, ps: ex.Patterns, ci: examples})
		}
		examples++
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, examples
}

// e22Catalogs builds fresh per-example catalogs behind a per-call
// latency — rebuilt per mode so every mode starts with cold sources and
// zeroed meters.
func e22Catalogs(tb testing.TB, examples int, delay time.Duration) []*Catalog {
	tb.Helper()
	cats := make([]*Catalog, 0, examples)
	for _, ex := range workload.PaperExamples() {
		if _, ok := smokeQuery(ex); !ok {
			continue
		}
		cat, err := DelayedCatalog(paperInstance(ex.Patterns).MustCatalog(ex.Patterns), delay)
		if err != nil {
			tb.Fatal(err)
		}
		cats = append(cats, cat)
	}
	return cats
}

// e22Seq draws the request sequence: Zipf-distributed indices (s≈1, the
// repeated-workload regime — roughly 90% of requests repeat an earlier
// one), the same sequence for every mode.
func e22Seq(distinct, requests int) []int {
	zipf := rand.NewZipf(rand.New(rand.NewSource(42)), 1.01, 1, uint64(distinct-1))
	seq := make([]int, requests)
	for i := range seq {
		seq[i] = int(zipf.Uint64())
	}
	return seq
}

// e22Run replays the request sequence through one cache configuration
// (qc nil = off), returning per-request latencies and total source
// calls. want pins cross-mode correctness: nil slots are filled, others
// verified.
func e22Run(tb testing.TB, reqs []e22Query, cats []*Catalog, seq []int, qc *QueryCache, want []*Rel) ([]time.Duration, int) {
	tb.Helper()
	lat := make([]time.Duration, 0, len(seq))
	for _, idx := range seq {
		r := reqs[idx]
		var opts []ExecOption
		if qc != nil {
			opts = append(opts, WithQueryCache(qc))
		}
		start := time.Now()
		res, err := Exec(context.Background(), r.q, r.ps, cats[r.ci], opts...)
		if err != nil {
			tb.Fatal(err)
		}
		rel, err := res.Rel()
		if err != nil {
			tb.Fatal(err)
		}
		lat = append(lat, time.Since(start))
		if want[idx] == nil {
			want[idx] = rel
		} else if !rel.Equal(want[idx]) {
			tb.Fatalf("request %d: answer diverged across modes", idx)
		}
	}
	calls := 0
	for _, c := range cats {
		calls += c.TotalStats().Calls
	}
	return lat, calls
}

// pctl returns the p-quantile of the latency sample.
func pctl(lat []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(p*float64(len(s)-1))]
}

// E22: the semantic query cache under a Zipf-repeated workload — the
// acceptance numbers first (≥5× fewer source calls and a lower p50
// with the full cache; plan-cache hits for the α-renamed and padded
// variants), then per-mode subbenchmarks.
func BenchmarkE22QueryCache(b *testing.B) {
	reqs, examples := e22Workload()
	if examples == 0 {
		b.Fatal("no executable paper examples")
	}
	seq := e22Seq(len(reqs), 10*len(reqs))
	want := make([]*Rel, len(reqs))
	const delay = 200 * time.Microsecond

	offLat, offCalls := e22Run(b, reqs, e22Catalogs(b, examples, delay), seq, nil, want)

	planQC := NewQueryCache(QueryCacheOptions{DisableAnswers: true})
	_, planCalls := e22Run(b, reqs, e22Catalogs(b, examples, delay), seq, planQC, want)

	fullQC := NewQueryCache(QueryCacheOptions{})
	fullLat, fullCalls := e22Run(b, reqs, e22Catalogs(b, examples, delay), seq, fullQC, want)

	offP50, fullP50 := pctl(offLat, 0.50), pctl(fullLat, 0.50)
	b.Logf("requests=%d distinct=%d classes=%d", len(seq), len(reqs), examples)
	b.Logf("calls: off=%d plan-only=%d full=%d", offCalls, planCalls, fullCalls)
	b.Logf("p50: off=%s full=%s  p99: off=%s full=%s",
		offP50, fullP50, pctl(offLat, 0.99), pctl(fullLat, 0.99))
	b.Logf("full-cache stats: %+v", fullQC.Stats())

	if fullCalls*5 > offCalls {
		b.Fatalf("full cache made %d source calls, want ≤ off/5 = %d", fullCalls, offCalls/5)
	}
	if fullP50 >= offP50 {
		b.Fatalf("full-cache p50 %s not below uncached %s", fullP50, offP50)
	}
	st := fullQC.Stats()
	if st.PlanMisses != examples {
		b.Fatalf("plan cache built %d plans, want one per equivalence class (%d): variants must collapse", st.PlanMisses, examples)
	}
	if st.PlanHits != len(seq)-examples {
		b.Fatalf("plan hits = %d, want every other request (%d)", st.PlanHits, len(seq)-examples)
	}
	if ps := planQC.Stats(); ps.AnswerHits != 0 || ps.PlanHits == 0 {
		b.Fatalf("plan-only stats = %+v, want plan hits and no answer hits", ps)
	}

	modes := []struct {
		name string
		qc   func() *QueryCache
	}{
		{"off", func() *QueryCache { return nil }},
		{"plan-only", func() *QueryCache { return NewQueryCache(QueryCacheOptions{DisableAnswers: true}) }},
		{"full", func() *QueryCache { return NewQueryCache(QueryCacheOptions{}) }},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cats := e22Catalogs(b, examples, delay)
			qc := m.qc()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := reqs[seq[i%len(seq)]]
				var opts []ExecOption
				if qc != nil {
					opts = append(opts, WithQueryCache(qc))
				}
				res, err := Exec(context.Background(), r.q, r.ps, cats[r.ci], opts...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.Rel(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// e23Slow delays every nth call of the wrapped source by extra (on top
// of whatever latency the source itself has), honoring cancellation —
// the intermittently slow replica of the E23 tail-latency experiment.
type e23Slow struct {
	Source
	n     int
	extra time.Duration
	clk   *VirtualClock // nil: stall on the real clock

	mu    sync.Mutex
	calls int
}

func (s *e23Slow) CallContext(ctx context.Context, p access.Pattern, inputs []string) ([]sources.Tuple, error) {
	s.mu.Lock()
	s.calls++
	slow := s.calls%s.n == 0
	s.mu.Unlock()
	if slow && s.clk != nil {
		if err := s.clk.Sleep(ctx, s.extra); err != nil {
			return nil, err
		}
	} else if slow {
		t := time.NewTimer(s.extra)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return sources.CallWithContext(ctx, s.Source, p, inputs)
}

// e23Catalog builds the E23 catalog: every relation fronted by a
// three-replica set routed round-robin, each replica with a base
// per-call delay; when slow is set, one replica of T stalls an extra
// 150ms on every 13th of its calls.
//
// With a virtual clock, latency is simulated instead of slept: a base
// delay advances clk by itself and returns at once, and a stall parks
// on clk, which no request advances far enough, until a hedge's win
// cancels it. Only the slow replica can then outlast the hedge delay,
// so the hedges counted are the stalls, not host scheduling jitter.
func e23Catalog(b *testing.B, in *Instance, ps *PatternSet, base time.Duration, slow bool, clk *VirtualClock) *Catalog {
	b.Helper()
	mk := func(slowT bool) *Catalog {
		cat, err := DelayedCatalog(in.MustCatalog(ps), base)
		if err != nil {
			b.Fatal(err)
		}
		var srcs []Source
		for _, name := range cat.Names() {
			src := cat.Source(name)
			if clk != nil {
				d := src.(*DelayedSource)
				d.Now = clk.Now
				d.Sleep = func(ctx context.Context, d time.Duration) error {
					clk.Advance(d)
					return ctx.Err()
				}
			}
			if slowT && name == "T" {
				src = &e23Slow{Source: src, n: 13, extra: 150 * time.Millisecond, clk: clk}
			}
			srcs = append(srcs, src)
		}
		cat, err = NewCatalog(srcs...)
		if err != nil {
			b.Fatal(err)
		}
		return cat
	}
	cfg := ReplicaConfig{Policy: RoundRobin{}}
	if clk != nil {
		cfg.Now = clk.Now
	}
	cat, _, err := ReplicaCatalog(cfg, mk(false), mk(false), mk(slow))
	if err != nil {
		b.Fatal(err)
	}
	return cat
}

// e23Run executes n sequential requests and returns each request's
// latency plus the run's launched-call and hedged-call totals.
func e23Run(ctx context.Context, b *testing.B, q Query, ps *PatternSet, cat *Catalog, rt *Runtime, n int, want *Rel) (lat []time.Duration, calls, hedges int) {
	b.Helper()
	for i := 0; i < n; i++ {
		start := time.Now()
		res, err := Exec(ctx, q, ps, cat, WithRuntime(rt), WithProfile())
		if err != nil {
			b.Fatal(err)
		}
		rel, err := res.Rel()
		if err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
		if !rel.Equal(want) {
			b.Fatalf("request %d: answer %s, want %s", i, rel, want)
		}
		prof, _ := res.Profile()
		calls += prof.TotalCalls()
		hedges += prof.HedgedCalls()
	}
	return lat, calls, hedges
}

// E23: hedged requests against a replica set with one intermittently
// slow replica of three. The acceptance properties are asserted up
// front — the slow replica drives the unhedged p99 to ≥5× the healthy
// baseline, hedging restores it to ≤2× the baseline (both on the real
// clock), and the hedges cost <5% extra calls (counted on a virtual-
// clock pass, where a healthy call cannot overrun the hedge delay
// because the host was slow) — then per-mode subbenchmarks time one
// request.
func BenchmarkE23Hedging(b *testing.B) {
	q := MustParseQuery(`Q(y) :- R(x), S(x, z), T(z, y).`)
	ps := MustParsePatterns(`R^o S^io T^io`)
	in := NewInstance().
		MustAdd("R", "x0").
		MustAdd("S", "x0", "z0").
		MustAdd("T", "z0", "y0")
	const (
		base     = 2 * time.Millisecond
		requests = 200
	)
	plain := func() *Runtime {
		rt := NewRuntime()
		rt.Retry.BaseDelay = 0
		return rt
	}
	hedging := func() *Runtime {
		rt := plain()
		rt.Hedge = HedgePolicy{Delay: 2 * base}
		return rt
	}
	want, err := execAnswer(q, ps, in.MustCatalog(ps))
	if err != nil {
		b.Fatal(err)
	}

	ctx := context.Background()
	healthyLat, _, _ := e23Run(ctx, b, q, ps, e23Catalog(b, in, ps, base, false, nil), plain(), requests, want)
	unhedgedLat, _, _ := e23Run(ctx, b, q, ps, e23Catalog(b, in, ps, base, true, nil), plain(), requests, want)
	hedgedLat, hedgedCalls, hedges := e23Run(ctx, b, q, ps, e23Catalog(b, in, ps, base, true, nil), hedging(), requests, want)
	// A stall parks until a hedge cancels it; the deadline turns a
	// hedge that never fires into a failure instead of a hang.
	vctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	clk := NewVirtualClock(time.Unix(0, 0))
	_, vCalls, vHedges := e23Run(vctx, b, q, ps, e23Catalog(b, in, ps, base, true, clk), hedging(), requests, want)

	healthyP99, unhedgedP99, hedgedP99 := pctl(healthyLat, 0.99), pctl(unhedgedLat, 0.99), pctl(hedgedLat, 0.99)
	b.Logf("p50: healthy=%s unhedged=%s hedged=%s",
		pctl(healthyLat, 0.50), pctl(unhedgedLat, 0.50), pctl(hedgedLat, 0.50))
	b.Logf("p99: healthy=%s unhedged=%s hedged=%s", healthyP99, unhedgedP99, hedgedP99)
	b.Logf("hedged run: %d calls, %d hedges (%.2f%% extra); virtual-clock pass: %d calls, %d hedges",
		hedgedCalls, hedges, 100*float64(hedges)/float64(hedgedCalls-hedges), vCalls, vHedges)

	if unhedgedP99 < 5*healthyP99 {
		b.Fatalf("unhedged p99 %s < 5× healthy %s: the slow replica must dominate the tail", unhedgedP99, healthyP99)
	}
	if hedgedP99 > 2*healthyP99 {
		b.Fatalf("hedged p99 %s > 2× healthy %s: hedging must restore the tail", hedgedP99, healthyP99)
	}
	if vHedges == 0 || 20*vHedges >= vCalls-vHedges {
		b.Fatalf("virtual-clock pass: %d hedges on %d primary calls: hedging must fire on the stalls and its extra-call overhead stay under 5%%",
			vHedges, vCalls-vHedges)
	}

	modes := []struct {
		name string
		slow bool
		rt   func() *Runtime
	}{
		{"healthy", false, plain},
		{"slow-replica-unhedged", true, plain},
		{"slow-replica-hedged", true, hedging},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cat := e23Catalog(b, in, ps, base, m.slow, nil)
			rt := m.rt()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Exec(context.Background(), q, ps, cat, WithRuntime(rt))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.Rel(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E25 ----------------------------------------------------------------

// e25Fixture builds the E25 workload: a three-way join with a negated
// membership check whose intermediate binding sets dwarf both the
// source traffic and the final answer. R fans every row into a small
// set of join keys, S multiplies each key by the fanout, T closes the
// chain, and N negates a quarter of the keys — so nearly all the time
// goes to per-binding evaluator overhead, which is exactly what the
// columnar batches attack. Distinct source calls stay in the dozens
// (memoization collapses them identically under both evaluators), and
// the head projects the join keys so deduplication also runs hot.
func e25Fixture(baseRows, fanout int) (Query, *PatternSet, *engine.Instance) {
	q := MustParseQuery(`Q(z, y) :- R(x, a, b, c, d, e, z), S(z, w), T(w, y), not N(z).`)
	ps := MustParsePatterns(`R^ooooooo S^io T^io N^i`)
	in := engine.NewInstance()
	const keys = 20
	for i := 0; i < baseRows; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i),
			fmt.Sprintf("a%d", i%7), fmt.Sprintf("b%d", i%11), fmt.Sprintf("c%d", i%13),
			fmt.Sprintf("d%d", i%3), fmt.Sprintf("e%d", i%5),
			fmt.Sprintf("z%d", i%keys))
	}
	for z := 0; z < keys; z++ {
		for j := 0; j < fanout; j++ {
			in.MustAdd("S", fmt.Sprintf("z%d", z), fmt.Sprintf("w%d", j))
		}
	}
	for j := 0; j < fanout; j++ {
		in.MustAdd("T", fmt.Sprintf("w%d", j), fmt.Sprintf("y%d", j))
	}
	for z := 0; z < keys; z += 4 {
		in.MustAdd("N", fmt.Sprintf("z%d", z))
	}
	return q, ps, in
}

// e25Best times reps fresh evaluations and returns the fastest, the
// answer of the last run, and the per-run source-call count.
func e25Best(b *testing.B, rt *Runtime, q Query, ps *PatternSet, in *engine.Instance, reps int) (time.Duration, *Rel, int) {
	b.Helper()
	var (
		best  time.Duration
		ans   *Rel
		calls int
	)
	for r := 0; r < reps; r++ {
		cat := in.MustCatalog(ps)
		start := time.Now()
		got, err := rt.Answer(context.Background(), q, ps, cat)
		if err != nil {
			b.Fatal(err)
		}
		if el := time.Since(start); r == 0 || el < best {
			best = el
		}
		ans, calls = got, cat.TotalStats().Calls
	}
	return best, ans, calls
}

// E25: columnar batch evaluation vs the historical map-based
// evaluator (Runtime.MapEval). The benchmark asserts the acceptance
// properties up front — byte-identical rows in identical order,
// identical source-call counts, and at least a 5x wall-clock win for
// the columnar hot loop — then times both evaluators with allocation
// counts. When a recorded seed (BENCH_E25.json) is present, the
// columnar allocs/op must stay within server.ColumnarAllocSlack of the
// seed's own columnar figure, so `make bench-smoke` catches allocation
// regressions.
func BenchmarkE25Columnar(b *testing.B) {
	q, ps, in := e25Fixture(4000, 8)
	colRT := NewRuntime()
	mapRT := NewRuntime()
	mapRT.MapEval = true

	colBest, colAns, colCalls := e25Best(b, colRT, q, ps, in, 5)
	mapBest, mapAns, mapCalls := e25Best(b, mapRT, q, ps, in, 5)

	colRows, mapRows := colAns.Rows(), mapAns.Rows()
	if len(colRows) != len(mapRows) {
		b.Fatalf("answer counts differ: columnar=%d map=%d", len(colRows), len(mapRows))
	}
	for i := range colRows {
		if colRows[i].Key() != mapRows[i].Key() {
			b.Fatalf("row %d differs: columnar=%s map=%s", i, colRows[i], mapRows[i])
		}
	}
	if colCalls != mapCalls {
		b.Fatalf("source calls differ: columnar=%d map=%d", colCalls, mapCalls)
	}
	speedup := float64(mapBest) / float64(colBest)
	b.Logf("map=%v columnar=%v speedup=%.1fx (%d rows, %d calls)",
		mapBest.Round(time.Microsecond), colBest.Round(time.Microsecond), speedup, len(colRows), colCalls)
	if speedup < 5 {
		b.Fatalf("columnar speedup %.2fx < 5x (map=%v columnar=%v)", speedup, mapBest, colBest)
	}

	// Allocation regression gate: the committed seed (BENCH_E25.json)
	// records the columnar evaluator's allocs/op; a measurement may
	// exceed it only by the 5% that Go's per-process map hash seed moves
	// allocation counts (the slack of server.CheckColumnarAllocs, which
	// gates re-recordings; this package cannot import internal/server).
	if data, err := os.ReadFile("BENCH_E25.json"); err == nil {
		var seed struct {
			ColumnarAllocsPerOp float64 `json:"columnar_allocs_per_op"`
		}
		if err := json.Unmarshal(data, &seed); err != nil || seed.ColumnarAllocsPerOp <= 0 {
			b.Fatalf("BENCH_E25.json: no columnar_allocs_per_op (%v)", err)
		}
		cat := in.MustCatalog(ps)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := colRT.Answer(context.Background(), q, ps, cat); err != nil {
				b.Fatal(err)
			}
		})
		if allocs > 1.05*seed.ColumnarAllocsPerOp {
			b.Fatalf("columnar allocs/op %.0f above 1.05× the recorded columnar seed %.0f",
				allocs, seed.ColumnarAllocsPerOp)
		}
		b.Logf("allocs/op: columnar=%.0f (seed %.0f)", allocs, seed.ColumnarAllocsPerOp)
	} else {
		b.Log("no BENCH_E25.json seed; skipping the allocation regression gate")
	}

	for _, cfg := range []struct {
		name string
		rt   *Runtime
	}{{"map", mapRT}, {"columnar", colRT}} {
		b.Run(cfg.name, func(b *testing.B) {
			cat := in.MustCatalog(ps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cfg.rt.Answer(context.Background(), q, ps, cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
