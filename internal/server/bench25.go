package server

// The E25 bench artifact (BENCH_E25.json): the columnar-vs-map
// evaluator comparison recorded by `paperbench -run E25 -bench-out`.
// It lives next to the E24 load report because ValidateBenchReport is
// the single schema gate for every committed BENCH_*.json: CI re-runs
// it on the artifacts so a drifting schema — or a regression in the
// invariants the artifact claims (identical calls, byte-identical
// answers, allocations below the map baseline) — fails the build.
// CheckColumnarAllocs is the tighter regression gate: a new measurement
// against the committed seed's own columnar figure.

import (
	"encoding/json"
	"fmt"
)

// ColumnarConfig is the E25 workload shape.
type ColumnarConfig struct {
	// BaseRows is the number of R facts seeding the join.
	BaseRows int `json:"base_rows"`
	// Fanout is the S multiplicity per join key.
	Fanout int `json:"fanout"`
}

// ColumnarReport is the E25 report. Every field is part of the schema
// checked by ValidateBenchReport.
type ColumnarReport struct {
	Experiment string         `json:"experiment"` // always "E25"
	Config     ColumnarConfig `json:"config"`
	// Rows is the binding count through the widest plan step.
	Rows int `json:"rows"`
	// Answers is the deduplicated answer count (identical under both
	// evaluators).
	Answers int `json:"answers"`
	// MapMS and ColumnarMS are best-of wall-clock times for one full
	// evaluation under each evaluator.
	MapMS      float64 `json:"map_ms"`
	ColumnarMS float64 `json:"columnar_ms"`
	// Speedup is MapMS / ColumnarMS.
	Speedup float64 `json:"speedup"`
	// MapCalls and ColumnarCalls are the per-evaluation source-call
	// counts; the evaluators must agree.
	MapCalls      int `json:"map_calls"`
	ColumnarCalls int `json:"columnar_calls"`
	// MapAllocsPerOp and ColumnarAllocsPerOp are heap allocations per
	// evaluation; BenchmarkE25Columnar and a re-recording gate new
	// columnar measurements against ColumnarAllocsPerOp
	// (CheckColumnarAllocs).
	MapAllocsPerOp      float64 `json:"map_allocs_per_op"`
	ColumnarAllocsPerOp float64 `json:"columnar_allocs_per_op"`
	// ByteIdentical records that both evaluators produced the same rows
	// in the same order.
	ByteIdentical bool `json:"byte_identical"`
}

// validateE25 schema-checks a ColumnarReport document and enforces the
// acceptance invariants the artifact exists to witness.
func validateE25(raw map[string]json.RawMessage) error {
	checks := []struct {
		key  string
		into any
	}{
		{"experiment", new(string)},
		{"config", new(ColumnarConfig)},
		{"rows", new(int)},
		{"answers", new(int)},
		{"map_ms", new(float64)},
		{"columnar_ms", new(float64)},
		{"speedup", new(float64)},
		{"map_calls", new(int)},
		{"columnar_calls", new(int)},
		{"map_allocs_per_op", new(float64)},
		{"columnar_allocs_per_op", new(float64)},
		{"byte_identical", new(bool)},
	}
	for _, c := range checks {
		v, ok := raw[c.key]
		if !ok {
			return fmt.Errorf("bench report: missing key %q", c.key)
		}
		if err := json.Unmarshal(v, c.into); err != nil {
			return fmt.Errorf("bench report: key %q: %w", c.key, err)
		}
	}
	var r ColumnarReport
	full, _ := json.Marshal(raw)
	if err := json.Unmarshal(full, &r); err != nil {
		return fmt.Errorf("bench report: %w", err)
	}
	if r.Rows <= 0 {
		return fmt.Errorf("bench report: rows = %d", r.Rows)
	}
	if r.MapCalls != r.ColumnarCalls {
		return fmt.Errorf("bench report: source calls differ: map=%d columnar=%d", r.MapCalls, r.ColumnarCalls)
	}
	if !r.ByteIdentical {
		return fmt.Errorf("bench report: byte_identical = false")
	}
	if r.Speedup <= 1 {
		return fmt.Errorf("bench report: speedup = %.2f, want > 1", r.Speedup)
	}
	if r.ColumnarAllocsPerOp >= r.MapAllocsPerOp {
		return fmt.Errorf("bench report: columnar allocs/op %.0f did not drop below map %.0f",
			r.ColumnarAllocsPerOp, r.MapAllocsPerOp)
	}
	return nil
}

// ColumnarAllocSlack is how far a columnar allocs/op measurement may
// exceed the committed E25 seed. Go seeds every map's hash per process,
// so map growth, and with it the allocation count, moves by a few
// percent from run to run at unchanged code.
const ColumnarAllocSlack = 1.05

// CheckColumnarAllocs gates a columnar allocs/op measurement against a
// committed E25 report (seed): it fails when allocs exceeds
// ColumnarAllocSlack × the seed's columnar_allocs_per_op.
func CheckColumnarAllocs(allocs float64, seed []byte) error {
	var r ColumnarReport
	if err := json.Unmarshal(seed, &r); err != nil {
		return fmt.Errorf("E25 seed: %w", err)
	}
	if r.Experiment != "E25" || r.ColumnarAllocsPerOp <= 0 {
		return fmt.Errorf("E25 seed: experiment %q, columnar_allocs_per_op %.0f", r.Experiment, r.ColumnarAllocsPerOp)
	}
	if limit := ColumnarAllocSlack * r.ColumnarAllocsPerOp; allocs > limit {
		return fmt.Errorf("columnar allocs/op %.0f above %.2f× the committed seed's %.0f",
			allocs, ColumnarAllocSlack, r.ColumnarAllocsPerOp)
	}
	return nil
}
