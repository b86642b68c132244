package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	ucqn "repro"
)

// newTestServer boots a server over n fixture tenants.
func newTestServer(t *testing.T, cfg Config, n int) (*Server, []*TenantFixture) {
	t.Helper()
	s := New(cfg)
	fixtures := PaperTenants(n)
	for _, f := range fixtures {
		if _, err := s.AddTenant(f.Name, f.Patterns, f.Catalog(), ucqn.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	return s, fixtures
}

// post issues a query over HTTP and returns the response and headers.
func post(t *testing.T, url, tenant, query string) (*Response, http.Header, int) {
	t.Helper()
	body, _ := json.Marshal(Request{Tenant: tenant, Query: query})
	httpResp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp Response
	if httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
	}
	return &resp, httpResp.Header, httpResp.StatusCode
}

// relOf rebuilds a Rel from wire rows.
func relOf(rows [][]string) *ucqn.Rel {
	rel := ucqn.NewRel()
	for _, row := range rows {
		rel.Add(ucqn.RowOf(row...))
	}
	return rel
}

func TestServerAnswersEveryTenantExactly(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 3)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, f := range fixtures {
		for qi, q := range f.Queries {
			resp, hdr, status := post(t, ts.URL, f.Name, q)
			if status != http.StatusOK {
				t.Fatalf("%s q%d: status %d", f.Name, qi, status)
			}
			if !resp.Complete || resp.Shed || resp.Degraded {
				t.Fatalf("%s q%d: complete=%v shed=%v degraded=%v, want a complete live answer",
					f.Name, qi, resp.Complete, resp.Shed, resp.Degraded)
			}
			if hdr.Get(HeaderComplete) != "true" || hdr.Get(HeaderShed) != "false" {
				t.Fatalf("%s q%d: headers complete=%q shed=%q", f.Name, qi, hdr.Get(HeaderComplete), hdr.Get(HeaderShed))
			}
			if got := relOf(resp.Answers); !got.Equal(f.Expected[qi]) {
				t.Fatalf("%s q%d: answers = %v, ground truth %v", f.Name, qi, got, f.Expected[qi])
			}
		}
	}
	st := s.Stats()
	for _, f := range fixtures {
		ts := st.Tenants[f.Name]
		if ts.Requests != int64(len(f.Queries)) || ts.Errors != 0 || ts.Shed != 0 {
			t.Errorf("%s stats = %+v", f.Name, ts)
		}
	}
}

func TestServerUnknownTenantAndBadQuery(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, _, status := post(t, ts.URL, "nobody", fixtures[0].Queries[0]); status != http.StatusNotFound {
		t.Errorf("unknown tenant status = %d, want 404", status)
	}
	if _, _, status := post(t, ts.URL, fixtures[0].Name, "this is not a query"); status != http.StatusBadRequest {
		t.Errorf("bad query status = %d, want 400", status)
	}
}

// Overload must degrade to the certified underestimate, never a 503:
// with the only execution slot occupied and the queue wait elapsed, a
// query with warm cached answers still returns them complete; a cold
// query returns an empty underestimate whose Incompleteness report says
// every disjunct was budget-exhausted. Both are HTTP 200.
func TestServerShedsToCertifiedUnderestimate(t *testing.T) {
	s, fixtures := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 2, QueueWait: 2 * time.Millisecond}, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	f := fixtures[0]
	warm, cold := f.Queries[0], f.Queries[1]

	// Warm the answer cache at full budget. A cold query pays real
	// source calls and the response meters them.
	if resp, _, _ := post(t, ts.URL, f.Name, warm); !resp.Complete {
		t.Fatal("warm-up must answer completely")
	} else if resp.Calls == 0 {
		t.Fatal("cold query reported 0 source calls; Response.Calls must meter real traffic")
	}

	// Occupy the only slot: everything below runs overloaded.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	resp, hdr, status := post(t, ts.URL, f.Name, warm)
	if status != http.StatusOK {
		t.Fatalf("shed warm status = %d, want 200", status)
	}
	if !resp.Shed || !resp.Complete {
		t.Fatalf("shed warm: shed=%v complete=%v, want a complete cache-served answer", resp.Shed, resp.Complete)
	}
	if got := relOf(resp.Answers); !got.Equal(f.Expected[0]) {
		t.Fatalf("shed warm answers = %v, want %v", got, f.Expected[0])
	}
	if resp.Calls != 0 {
		t.Errorf("shed request spent %d source calls, want 0", resp.Calls)
	}
	if hdr.Get(HeaderShed) != "true" {
		t.Errorf("%s = %q, want true", HeaderShed, hdr.Get(HeaderShed))
	}

	resp, hdr, status = post(t, ts.URL, f.Name, cold)
	if status != http.StatusOK {
		t.Fatalf("shed cold status = %d, want 200 (never a 503)", status)
	}
	if !resp.Shed || resp.Complete || !resp.Degraded {
		t.Fatalf("shed cold: shed=%v complete=%v degraded=%v", resp.Shed, resp.Complete, resp.Degraded)
	}
	if len(resp.Answers) != 0 {
		t.Errorf("shed cold answers = %v, want the empty underestimate", resp.Answers)
	}
	if resp.Incompleteness == nil || len(resp.Incompleteness.Failed) == 0 {
		t.Fatalf("shed cold: incompleteness = %+v, want budget-exhausted failures", resp.Incompleteness)
	}
	for _, fr := range resp.Incompleteness.Failed {
		if fr.Class != "budget-exhausted" {
			t.Errorf("failure class = %q, want budget-exhausted", fr.Class)
		}
	}
	if h := hdr.Get(HeaderIncompleteness); !strings.Contains(h, "budget-exhausted") {
		t.Errorf("%s = %q, want the compact report naming budget-exhausted", HeaderIncompleteness, h)
	}
	if st := s.Stats(); st.Shed != 2 || st.Tenants[f.Name].Shed != 2 {
		t.Errorf("shed counters = %d global / %d tenant, want 2/2", st.Shed, st.Tenants[f.Name].Shed)
	}
}

// Invalidation bumps the tenant's catalog generation: cached answers
// stop matching and the next query re-reads the sources.
func TestServerInvalidateBustsTenantAnswers(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	f := fixtures[0]
	ctx := context.Background()

	if _, err := s.Query(ctx, f.Name, f.Queries[0]); err != nil {
		t.Fatal(err)
	}
	before := s.Tenant(f.Name).cat.TotalStats().Calls
	if before == 0 {
		t.Fatal("sanity: sources were never called")
	}
	cached, err := s.Query(ctx, f.Name, f.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Complete {
		t.Fatal("cached answer must be complete")
	}
	if after := s.Tenant(f.Name).cat.TotalStats().Calls; after != before {
		t.Fatalf("second query re-read the sources: %d -> %d calls", before, after)
	}

	body, _ := json.Marshal(Request{Tenant: f.Name})
	httpResp, err := http.Post(ts.URL+"/v1/invalidate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Tenant string `json:"tenant"`
		Gen    int64  `json:"gen"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&ack); err != nil {
		t.Fatalf("invalidate body: %v", err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate status = %d", httpResp.StatusCode)
	}
	if ack.Gen <= 0 {
		t.Fatalf("invalidate gen = %d, want the bumped generation", ack.Gen)
	}

	if _, err := s.Query(ctx, f.Name, f.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if after := s.Tenant(f.Name).cat.TotalStats().Calls; after <= before {
		t.Fatalf("post-invalidate query served stale cache: calls still %d", after)
	}

	// The sibling tenant's cached answers are untouched by the bump.
	g := fixtures[1]
	if _, err := s.Query(ctx, g.Name, g.Queries[0]); err != nil {
		t.Fatal(err)
	}
	gBefore := s.Tenant(g.Name).cat.TotalStats().Calls
	if _, err := s.Query(ctx, g.Name, g.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if gAfter := s.Tenant(g.Name).cat.TotalStats().Calls; gAfter != gBefore {
		t.Errorf("tenant %s lost its cache to %s's invalidation", g.Name, f.Name)
	}
}

func TestValidateBenchReport(t *testing.T) {
	good := &LoadReport{Experiment: "E24", Requests: 10, QPS: 3.3, Sound: true}
	data, _ := json.Marshal(good)
	if err := ValidateBenchReport(data); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "p99_ms")
	bad, _ := json.Marshal(m)
	if err := ValidateBenchReport(bad); err == nil {
		t.Error("missing p99_ms must fail validation")
	}
	m["p99_ms"] = "fast"
	bad, _ = json.Marshal(m)
	if err := ValidateBenchReport(bad); err == nil {
		t.Error("non-numeric p99_ms must fail validation")
	}
	m["p99_ms"] = 1.0
	m["experiment"] = "E7"
	bad, _ = json.Marshal(m)
	if err := ValidateBenchReport(bad); err == nil {
		t.Error("wrong experiment tag must fail validation")
	}
}

func TestValidateBenchReportE25(t *testing.T) {
	good := &ColumnarReport{
		Experiment: "E25",
		Config:     ColumnarConfig{BaseRows: 4000, Fanout: 8},
		Rows:       32000, Answers: 120,
		MapMS: 75.0, ColumnarMS: 11.0, Speedup: 6.8,
		MapCalls: 49, ColumnarCalls: 49,
		MapAllocsPerOp: 280000, ColumnarAllocsPerOp: 5900,
		ByteIdentical: true,
	}
	data, _ := json.Marshal(good)
	if err := ValidateBenchReport(data); err != nil {
		t.Fatalf("valid E25 report rejected: %v", err)
	}
	remarshal := func(mutate func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		out, _ := json.Marshal(m)
		return out
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { delete(m, "speedup") })); err == nil {
		t.Error("missing speedup must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["columnar_ms"] = "fast" })); err == nil {
		t.Error("non-numeric columnar_ms must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["map_calls"] = 48.0 })); err == nil {
		t.Error("diverging source-call counts must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["byte_identical"] = false })); err == nil {
		t.Error("byte_identical=false must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["columnar_allocs_per_op"] = 400000.0 })); err == nil {
		t.Error("columnar allocs above the map baseline must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["speedup"] = 0.9 })); err == nil {
		t.Error("speedup below 1 must fail validation")
	}
}

func TestCheckColumnarAllocs(t *testing.T) {
	seed, _ := json.Marshal(&ColumnarReport{Experiment: "E25", ColumnarAllocsPerOp: 1000})
	for allocs, ok := range map[float64]bool{900: true, 1000: true, 1050: true, 1051: false, 5000: false} {
		if err := CheckColumnarAllocs(allocs, seed); (err == nil) != ok {
			t.Errorf("allocs %.0f against seed 1000: err = %v, want pass=%v", allocs, err, ok)
		}
	}
	for _, bad := range []string{`{"experiment": "E24", "columnar_allocs_per_op": 1000}`, `{"experiment": "E25"}`, `[`} {
		if err := CheckColumnarAllocs(1, []byte(bad)); err == nil {
			t.Errorf("seed %s accepted", bad)
		}
	}
}

func TestValidateBenchReportE26(t *testing.T) {
	good := &WarmRestartReport{
		Experiment: "E26",
		Config:     WarmRestartConfig{Tenants: 3, DelayMS: 2},
		Queries:    24,
		ColdCalls:  21, ColdP50MS: 0.043, ColdMeanMS: 2.05,
		SteadyCalls: 0, SteadyP50MS: 0.012, SteadyMeanMS: 0.016,
		WarmCalls: 0, WarmP50MS: 0.022, WarmMeanMS: 0.038,
		PersistLoads: 9, PersistDrops: 0, PersistBytes: 1968,
		Sound: true,
	}
	data, _ := json.Marshal(good)
	if err := ValidateBenchReport(data); err != nil {
		t.Fatalf("valid E26 report rejected: %v", err)
	}
	remarshal := func(mutate func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		out, _ := json.Marshal(m)
		return out
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { delete(m, "persist_loads") })); err == nil {
		t.Error("missing persist_loads must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["warm_p50_ms"] = "fast" })); err == nil {
		t.Error("non-numeric warm_p50_ms must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["sound"] = false })); err == nil {
		t.Error("sound=false must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["warm_calls"] = 21.0 })); err == nil {
		t.Error("warm_calls above steady state must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["persist_loads"] = 0.0 })); err == nil {
		t.Error("zero persist_loads must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["warm_mean_ms"] = 9.9 })); err == nil {
		t.Error("warm mean above cold must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["cold_calls"] = 0.0 })); err == nil {
		t.Error("zero cold_calls must fail validation")
	}
}

// Every committed BENCH_*.json at the repo root must pass the schema
// gate it was written under — a drifting schema or a hand-edited
// artifact fails here, not in a later comparison script.
func TestCommittedBenchArtifacts(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Skip("no committed bench artifacts")
	}
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		if err := ValidateBenchReport(data); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
	}
}

// The E26 harness end to end: cold pass pays source calls, the warm
// restart over the same directory pays none, and the report passes the
// committed-artifact schema gate.
func TestRunWarmRestart(t *testing.T) {
	rep, err := RunWarmRestart(context.Background(), t.TempDir(),
		WarmRestartConfig{Tenants: 2, DelayMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdCalls == 0 {
		t.Error("cold pass made no source calls")
	}
	if rep.WarmCalls != rep.SteadyCalls {
		t.Errorf("warm pass made %d calls, steady state is %d", rep.WarmCalls, rep.SteadyCalls)
	}
	if rep.PersistLoads == 0 {
		t.Error("warm restart loaded nothing from disk")
	}
	if !rep.Sound {
		t.Error("a pass served an unsound answer")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(data); err != nil {
		t.Errorf("harness report fails its own schema gate: %v", err)
	}
}

// The load generator against a live server must produce a sound,
// schema-valid report with traffic in it.
func TestLoadGenSoundReport(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 3)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	report, err := RunLoad(context.Background(), ts.URL, fixtures, LoadConfig{
		Users: 4, Duration: 300 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("loadgen made no requests")
	}
	if !report.Sound {
		t.Fatalf("unsound responses: %v", report.Unsound)
	}
	if report.Errors != 0 {
		t.Errorf("errors = %d", report.Errors)
	}
	if report.QPS <= 0 || report.P50MS < 0 || report.P99MS < report.P50MS {
		t.Errorf("latency summary: qps=%.1f p50=%.3f p99=%.3f", report.QPS, report.P50MS, report.P99MS)
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(data); err != nil {
		t.Errorf("harness output fails its own schema: %v", err)
	}
}

// The invalidation mix: mid-run /v1/invalidate calls interleave with
// the load, and the generation-watermark check must observe zero
// post-invalidation responses carrying a pre-invalidation generation.
func TestLoadGenInvalidationMixSeesNoStaleRows(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 3)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	report, err := RunLoad(context.Background(), ts.URL, fixtures, LoadConfig{
		Users: 4, Duration: 400 * time.Millisecond, Seed: 1,
		InvalidateEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Invalidations == 0 {
		t.Fatal("the invalidator never fired")
	}
	if report.Stale != 0 {
		t.Fatalf("%d responses carried a generation below an acked invalidation watermark: %v",
			report.Stale, report.Unsound)
	}
	if !report.Sound {
		t.Fatalf("unsound responses under the invalidation mix: %v", report.Unsound)
	}
	if report.Config.InvalidateEveryS == 0 {
		t.Error("report config dropped the invalidation cadence")
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(data); err != nil {
		t.Errorf("invalidation-mix report fails the schema gate: %v", err)
	}
}

// An ad-hoc query stream whose every query carries a constant no
// source holds must keep the process-wide interner flat in /v1/stats:
// plan constants are resolved per execution, never interned. The cache
// section also reports the equivalence scan's checks next to its hits.
func TestServerFreshConstantsKeepInternerFlat(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 1)
	f := fixtures[0]
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	stats := func() (Stats, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var raw bytes.Buffer
		if _, err := raw.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		var st Stats
		var generic map[string]any
		if err := json.Unmarshal(raw.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw.Bytes(), &generic); err != nil {
			t.Fatal(err)
		}
		return st, generic
	}
	ctx := context.Background()
	// Warm up: the tenant's own values enter the interner once.
	if _, err := s.Query(ctx, f.Name, `Q(x, y) :- R(x, y), not L(x).`); err != nil {
		t.Fatal(err)
	}
	before, _ := stats()
	for i := 0; i < 200; i++ {
		resp, err := s.Query(ctx, f.Name, fmt.Sprintf(`Q(x, y) :- R(x, y), not L("srv_never_%d").`, i))
		if err != nil {
			t.Fatal(err)
		}
		// not L(<absent constant>) is always true: the answer is R.
		if got := relOf(resp.Answers); !got.Equal(f.Expected[0]) {
			t.Fatalf("constant %d: answers %v, want %v", i, got, f.Expected[0])
		}
	}
	after, generic := stats()
	if after.Interner.Entries != before.Interner.Entries {
		t.Fatalf("interner.entries %d -> %d across fresh-constant queries", before.Interner.Entries, after.Interner.Entries)
	}
	cache, _ := generic["cache"].(map[string]any)
	if _, ok := cache["EquivChecks"]; !ok {
		t.Fatalf("/v1/stats cache section lacks EquivChecks: %v", cache)
	}
	if _, ok := cache["EquivHits"]; !ok {
		t.Fatalf("/v1/stats cache section lacks EquivHits: %v", cache)
	}
}
