package engine

import (
	"context"
	"fmt"
	"testing"
)

// A stream of ad-hoc queries, each with a constant no source ever
// returned, must not grow the process-wide interner: plan constants
// resolve through the execution-local spill table. Answers stay exact
// (checked against naive evaluation), materialized and streamed.
func TestPlanConstantsDoNotGrowInterner(t *testing.T) {
	in := NewInstance()
	for i := 0; i < 6; i++ {
		in.MustAdd("R", fmt.Sprintf("pc_x%d", i), fmt.Sprintf("pc_y%d", i%3))
	}
	in.MustAdd("L", "pc_x0").MustAdd("L", "pc_blocked")
	ps := pats(t, `R^oo L^o`)
	cat := in.MustCatalog(ps)
	rt := NewRuntime()
	ctx := context.Background()

	// Warm up: the sources' own values enter the interner once.
	if _, err := rt.Answer(ctx, ucq(t, `Q(x) :- R(x, y), not L(x).`), ps, cat); err != nil {
		t.Fatal(err)
	}
	entries0, _ := InternerOccupancy()
	for i := 0; i < 200; i++ {
		u := ucq(t, fmt.Sprintf(`Q(x) :- R(x, y), not L("pc_never_%d").`, i))
		want, err := AnswerNaive(u, in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.Answer(ctx, u, ps, cat)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Len() != 6 {
			t.Fatalf("constant %d: answer %s, naive %s", i, got, want)
		}
		if i%20 == 0 {
			s, err := rt.Stream(ctx, u, ps, cat)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := s.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if !streamed.Equal(want) {
				t.Fatalf("constant %d: streamed answer %s, naive %s", i, streamed, want)
			}
		}
	}
	// Constants the sources do return resolve to their interned IDs and
	// still filter, positively and under negation.
	for src, n := range map[string]int{
		`Q(x) :- R(x, "pc_y1").`:                2,
		`Q(x) :- R(x, y), not L("pc_blocked").`: 0,
	} {
		got, err := rt.Answer(ctx, ucq(t, src), ps, cat)
		if err != nil || got.Len() != n {
			t.Fatalf("%s: answer %v (err %v), want %d rows", src, got, err, n)
		}
	}
	if entries1, _ := InternerOccupancy(); entries1 != entries0 {
		t.Fatalf("fresh plan constants grew the interner by %d entries", entries1-entries0)
	}
}

// A plan constant that a source first returns during the same
// execution must still join: the source value resolves to the
// constant's spill ID, as a positive filter, a call input, a negated
// filter, and a value flowing into the head.
func TestPlanConstantFirstSeenFromSource(t *testing.T) {
	ps := pats(t, `R^oo T^io L^o`)
	queries := []string{
		// Positive filter on a source-returned value.
		`Q(x) :- R(x, "%[1]sK1").`,
		// The constant as a call input, and as a filter on the output.
		`Q(y) :- T("%[1]sK1", y).`,
		`Q(x, y) :- R(x, y), T(y, "%[1]sK2").`,
		// A head value bound from the source equal to a plan constant.
		`Q(x, y) :- R(x, y), T(y, z), T("%[1]sK1", z).`,
		// Negated filter: L returns the constant, so the rule is empty.
		`Q(x) :- R(x, y), not L("%[1]sK3").`,
		`Q(x) :- R(x, y), not L("%[1]sK4").`,
	}
	for qi, tmpl := range queries {
		for _, mapEval := range []bool{false, true} {
			// Fresh values per run: no earlier execution interned them.
			p := fmt.Sprintf("fs%d_%v_", qi, mapEval)
			in := NewInstance().
				MustAdd("R", p+"a", p+"K1").
				MustAdd("R", p+"b", p+"other").
				MustAdd("T", p+"K1", p+"K2").
				MustAdd("T", p+"other", p+"K2").
				MustAdd("L", p+"K3")
			u := ucq(t, fmt.Sprintf(tmpl, p))
			want, err := AnswerNaive(u, in)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := interned.lookup(p + "K1"); ok {
				t.Fatalf("%s: value interned before the run", u)
			}
			rt := NewRuntime()
			rt.MapEval = mapEval
			got, err := rt.Answer(context.Background(), u, ps, in.MustCatalog(ps))
			if err != nil {
				t.Fatalf("%s: %v", u, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s (MapEval=%v): answer %s, naive %s", u, mapEval, got, want)
			}
		}
	}
}
