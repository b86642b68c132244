package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

var live25Runs atomic.Int64

// The E25 plan shape. After the R step only z is live — x and a…e are
// read by no later step and not by the head — so R's bindings collapse
// to one per distinct z, and evaluation interns only the values some
// later probe or the head reads: z, w and y (N returns z values).
func TestLiveCollapseE25Shape(t *testing.T) {
	const rows, keys, fanout = 120, 6, 3
	// Values no earlier run in this process interned (-count=N).
	prefix := fmt.Sprintf("live25_%d_", live25Runs.Add(1))
	v := func(f string, a ...any) string { return prefix + fmt.Sprintf(f, a...) }
	in := NewInstance()
	for i := 0; i < rows; i++ {
		in.MustAdd("R", v("x%d", i), v("a%d", i%7), v("b%d", i%11), v("c%d", i%13),
			v("d%d", i%3), v("e%d", i%5), v("z%d", i%keys))
	}
	for z := 0; z < keys; z++ {
		for j := 0; j < fanout; j++ {
			in.MustAdd("S", v("z%d", z), v("w%d", j))
		}
		if z%2 == 0 {
			in.MustAdd("N", v("z%d", z))
		}
	}
	for j := 0; j < fanout; j++ {
		in.MustAdd("T", v("w%d", j), v("y%d", j))
	}
	ps := pats(t, `R^ooooooo S^io T^io N^i`)
	u := ucq(t, `Q(z, y) :- R(x, a, b, c, d, e, z), S(z, w), T(w, y), not N(z).`)
	want, err := AnswerNaive(u, in)
	if err != nil {
		t.Fatal(err)
	}

	entries0, _ := InternerOccupancy()
	got, prof, err := NewRuntime().AnswerProfiled(context.Background(), u, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || got.Len() != keys/2*fanout {
		t.Fatalf("answer %s, naive %s", got, want)
	}
	steps := prof.Rules[0].Steps
	if steps[0].BindingsOut != keys {
		t.Errorf("R step emitted %d bindings, want one per distinct z (%d)", steps[0].BindingsOut, keys)
	}
	if steps[1].Calls != keys || steps[1].DedupedCalls != 0 {
		t.Errorf("S step = %+v, want %d calls and no repeated inputs", steps[1], keys)
	}
	entries1, _ := InternerOccupancy()
	if grown, live := entries1-entries0, keys+2*fanout; grown != live || prof.Batch.InternedValues != live {
		t.Errorf("interner grew by %d (profile: %d interned), want only the %d z, w and y values",
			grown, prof.Batch.InternedValues, live)
	}

	// The map evaluator carries every binding; it is the reference.
	mapRT := NewRuntime()
	mapRT.MapEval = true
	ref, refProf, err := mapRT.AnswerProfiled(context.Background(), u, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Equal(got) || refProf.Rules[0].Steps[0].BindingsOut != rows || refProf.TotalCalls() != prof.TotalCalls() {
		t.Errorf("map evaluator: %s, R step %+v, %d calls (columnar %d)",
			ref, refProf.Rules[0].Steps[0], refProf.TotalCalls(), prof.TotalCalls())
	}
}
