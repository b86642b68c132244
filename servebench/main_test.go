package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	ucqn "repro"
)

// spec is the part of BENCHMARK.json the self-tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs the command in process and returns its exit code, the
// decoded last stdout line (nil if it is not a result) and the output.
func runBench(t *testing.T, args ...string) (int, *result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res *result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		res = nil
	}
	return code, res, stdout.String() + stderr.String()
}

// TestEveryMetricPrinted runs each workload briefly, both ways, and
// checks that the result carries exactly the metrics BENCHMARK.json
// names, with their units, and that the environment stamp is printed.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{
			"0": func() (out []struct{ Name, Unit string }) {
				for _, m := range s.EndToEnd {
					out = append(out, struct{ Name, Unit string }{m.Name, m.Unit})
				}
				return out
			}(),
			"1": func() (out []struct{ Name, Unit string }) {
				for _, m := range s.PerLayer {
					out = append(out, struct{ Name, Unit string }{m.Name, m.Unit})
				}
				return out
			}(),
		} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				code, res, out := runBench(t, "--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace, "--trace-ops", "60")
				if code != 0 || res == nil {
					t.Fatalf("exit %d, output:\n%s", code, out)
				}
				if !strings.Contains(out, "env: nproc=") || !strings.Contains(out, "gomaxprocs=") || !strings.Contains(out, "commit=") {
					t.Errorf("no environment stamp in:\n%s", out)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result %+v", res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestOracleFailsPlantedFaults plants a wrong row and a stale
// generation into the client's view of one response; the run must exit
// non-zero, report correct=false and name the operation.
func TestOracleFailsPlantedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, tc := range []struct{ workload, plant, want string }{
		{"hot-hits", "wrong-row", "ground truth"},
		{"adhoc-plans", "wrong-row", "ground truth"},
		{"churn-eval", "stale-gen", "below the invalidation watermark"},
	} {
		t.Run(tc.workload+"/"+tc.plant, func(t *testing.T) {
			code, res, out := runBench(t, "--workload", tc.workload, "--seed", "3", "--seconds", "1", "--plant", tc.plant)
			if code == 0 {
				t.Fatalf("planted %s passed:\n%s", tc.plant, out)
			}
			if res == nil || res.Correct {
				t.Errorf("want a result with correct=false, got %+v", res)
			}
			if !strings.Contains(out, tc.want) || !strings.Contains(out, "tenant-") {
				t.Errorf("failure does not name the operation and the violation %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestAdhocGenerator checks the generator's guarantees: a pure function
// of the seed, every query orderable under the fixture patterns, and no
// two queries alike.
func TestAdhocGenerator(t *testing.T) {
	w := workloads["adhoc-plans"]
	fx := w.build()
	draw := func(seed int64) []op {
		s := newStream(fx, seed, 0)
		var ops []op
		for i := 0; i < 2000; i++ {
			ops = append(ops, s.draw(w, fx))
		}
		return ops
	}
	a, b := draw(11), draw(11)
	seen := map[string]bool{}
	for i := range a {
		if a[i].query != b[i].query || a[i].tenant != b[i].tenant {
			t.Fatalf("op %d differs between two draws of one seed: %s vs %s", i, a[i], b[i])
		}
		if seen[a[i].query] {
			t.Fatalf("op %d repeats %q", i, a[i].query)
		}
		seen[a[i].query] = true
		if !ucqn.Orderable(ucqn.MustParseQuery(a[i].query), adhocPatterns) {
			t.Fatalf("op %d not orderable: %q", i, a[i].query)
		}
	}
	if c := draw(12); c[0].query == a[0].query && c[1].query == a[1].query {
		t.Errorf("seeds 11 and 12 drew the same stream")
	}
}

// TestBadArguments checks that usage errors exit 2 without a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "hot-hits", "--trace", "2"},
		{"--workload", "hot-hits", "--seconds", "0"},
		{"--workload", "hot-hits", "--plant", "other"},
	} {
		code, res, _ := runBench(t, args...)
		if code != 2 || res != nil {
			t.Errorf("%s: exit %d, result %+v", fmt.Sprint(args), code, res)
		}
	}
}
