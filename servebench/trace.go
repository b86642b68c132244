package main

// The traced run. It replays the workload's operation stream from one
// goroutine and composes the layers' exported functions in the order
// server.Server.Query calls them, each call under its own span:
//
//	json.Unmarshal → ucqn.ParseQuery → QueryCache.Plan → QueryCache.Answers
//	→ engine.Runtime.Eval (uncovered disjuncts, profiling on)
//	→ QueryCache.StoreAnswers → Rel.Sorted → json.Marshal
//
// and an invalidation as QueryCache.InvalidateCatalog. Source calls are
// spans of a wrapper around every table of the catalog, persistence
// calls spans of a persist.Store wrapper attached with AttachStore. On
// each plan miss a probe, off the operation's timed path, times the
// planner functions on the same query.
//
// The same stream is replayed untraced, interleaved operation by
// operation with the composition, through Server.Query and through the
// HTTP handler on fresh servers; every response must be byte-identical
// to the composition's (elapsed_ms aside). A last untimed replay counts
// allocations.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ucqn "repro"
	"repro/internal/access"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/minimize"
	"repro/internal/qcache"
	"repro/internal/qcache/persist"
	"repro/internal/server"
	"repro/internal/sources"
)

// feasibleBudget is the containment-node budget the plan cache gives
// FEASIBLE (qcache's default); the probe uses the same.
const feasibleBudget = 20000

// span is one timed call. parent is the index of the enclosing span, or
// -1 for a layer call made directly by the operation.
type span struct {
	name       string
	parent     int32
	op         int32
	start, end time.Duration
}

// tracer records spans in memory. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	open  int32 // innermost open span of the replay goroutine
	op    int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: -1} }

// begin opens a span on the replay goroutine; later spans nest in it
// until end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: t.open, op: t.op, start: time.Since(t.epoch)})
	t.open = id
	return id
}

// leaf records a span inside the innermost open span; source calls
// issue these from the engine's worker goroutines, so they never become
// a parent.
func (t *tracer) leaf(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: t.open, op: t.op, start: time.Since(t.epoch)})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = time.Since(t.epoch)
	if t.open == id {
		t.open = t.spans[id].parent
	}
}

// setOp tags the spans that follow with operation i.
func (t *tracer) setOp(i int) {
	t.mu.Lock()
	t.op = int32(i)
	t.mu.Unlock()
}

// rename relabels a finished span (a plan lookup is a hit or a miss
// only once it returns).
func (t *tracer) rename(id int32, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].name = name
	t.mu.Unlock()
}

// timedSource wraps one catalog table: every call is a sources.call
// span and is counted.
type timedSource struct {
	inner  *sources.Table
	tr     *tracer
	calls  atomic.Int64
	tuples atomic.Int64
}

func (s *timedSource) Name() string                 { return s.inner.Name() }
func (s *timedSource) Arity() int                   { return s.inner.Arity() }
func (s *timedSource) Patterns() []access.Pattern   { return s.inner.Patterns() }
func (s *timedSource) StatsSnapshot() sources.Stats { return s.inner.StatsSnapshot() }
func (s *timedSource) ResetStats()                  { s.inner.ResetStats() }

func (s *timedSource) Call(p access.Pattern, inputs []string) ([]sources.Tuple, error) {
	return s.CallContext(context.Background(), p, inputs)
}

func (s *timedSource) CallContext(ctx context.Context, p access.Pattern, inputs []string) ([]sources.Tuple, error) {
	id := s.tr.leaf("sources.call")
	rows, err := s.inner.CallContext(ctx, p, inputs)
	s.tr.end(id)
	s.calls.Add(1)
	s.tuples.Add(int64(len(rows)))
	return rows, err
}

// timedStore wraps the persistence log: appends and tombstones are
// spans, and the answer-row bytes handed to the log are counted.
type timedStore struct {
	persist.Store
	tr       *tracer
	rowBytes int64
}

func (s *timedStore) Append(e persist.Entry) error {
	id := s.tr.leaf("persist.append")
	err := s.Store.Append(e)
	s.tr.end(id)
	for _, row := range e.Rows {
		for _, v := range row {
			s.rowBytes += int64(len(v.S))
		}
	}
	return err
}

func (s *timedStore) AppendTombstone(label string, gen int64) error {
	id := s.tr.leaf("persist.tombstone")
	err := s.Store.AppendTombstone(label, gen)
	s.tr.end(id)
	return err
}

// countingFS counts the bytes the log writes to disk.
type countingFS struct {
	persist.OSFS
	n *atomic.Int64
}

type countingFile struct {
	persist.File
	n *atomic.Int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

func (fs countingFS) OpenAppend(path string) (persist.File, int64, error) {
	f, size, err := fs.OSFS.OpenAppend(path)
	if err != nil {
		return nil, size, err
	}
	return countingFile{f, fs.n}, size, nil
}

func (fs countingFS) Create(path string) (persist.File, error) {
	f, err := fs.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return countingFile{f, fs.n}, nil
}

// evalCall is one Eval the replay made: the tenant and the uncovered
// sub-union.
type evalCall struct {
	tenant string
	sub    logic.UCQ
}

// plannerProbe times the planner functions the plan cache runs on a
// miss, called again on the same query outside the operation.
type plannerProbe struct {
	n, exhausted                              int
	minimize, canon, reorder, adorn, feasible time.Duration
}

func (p *plannerProbe) run(q logic.UCQ, ps *access.Set, exec logic.UCQ) {
	p.n++
	t0 := time.Now()
	cores := minimize.Cores(q)
	t1 := time.Now()
	for _, cr := range cores {
		n := cr.Clone()
		n.HeadPred = "Q"
		containment.Canonicalize(n)
	}
	t2 := time.Now()
	core.ReorderUCQ(logic.UCQ{Rules: cores}, ps)
	t3 := time.Now()
	for _, r := range exec.Rules {
		if !r.False {
			access.AdornInOrder(r.Body, ps)
		}
	}
	t4 := time.Now()
	_, err := core.FeasibleLimited(q, ps, feasibleBudget)
	t5 := time.Now()
	if err != nil {
		p.exhausted++
	}
	p.minimize += t1.Sub(t0)
	p.canon += t2.Sub(t1)
	p.reorder += t3.Sub(t2)
	p.adorn += t4.Sub(t3)
	p.feasible += t5.Sub(t4)
}

// missedPlan is a query whose plan the cache had to build.
type missedPlan struct {
	q    logic.UCQ
	ps   *access.Set
	exec logic.UCQ
}

// composedTenant is one tenant of the composition: its catalog is built
// from wrapped tables.
type composedTenant struct {
	ps   *ucqn.PatternSet
	cat  *ucqn.Catalog
	srcs []*timedSource
}

// composer replays operations through the layers' exported functions.
type composer struct {
	cache   *qcache.Cache
	rt      *engine.Runtime
	tenants map[string]*composedTenant
	store   *timedStore // nil without persistence
	written atomic.Int64
	dir     string

	// Set after warm-up.
	tr *tracer
	// evalCalls, when non-nil, collects every Eval made (the count
	// replay measures their allocations afterwards).
	evalCalls *[]evalCall
	// missed is the last operation's plan miss, for the planner probe.
	missed *missedPlan

	counts
}

// counts are a composer's per-layer counters since the last reset.
type counts struct {
	planHits, planMisses    int
	ansHits, ansMisses      int
	equivHits, equivScanned int
	evals, bindings         int
	calls, deduped          int
}

func newComposer(w *workload, fx *fixture) (*composer, error) {
	c := &composer{cache: qcache.New(qcache.Options{}), rt: engine.DefaultRuntime(), tenants: map[string]*composedTenant{}}
	if w.persist {
		dir, err := scratchDir()
		if err != nil {
			return nil, err
		}
		c.dir = dir
		lg, rs, err := persist.Open(dir, persist.Options{FS: countingFS{n: &c.written}})
		if err != nil {
			c.close()
			return nil, err
		}
		c.store = &timedStore{Store: lg}
		c.cache.AttachStore(c.store, rs)
	}
	for _, t := range fx.tenants {
		plain := t.in.MustCatalog(t.ps)
		ct := &composedTenant{ps: t.ps}
		var srcs []sources.Source
		for _, name := range plain.Names() {
			ts := &timedSource{inner: plain.Source(name).(*sources.Table)}
			ct.srcs = append(ct.srcs, ts)
			srcs = append(srcs, ts)
		}
		cat, err := sources.NewCatalog(srcs...)
		if err != nil {
			c.close()
			return nil, err
		}
		if w.persist {
			cat.SetPersistentID(t.name) // as Server.AddTenant does
		}
		ct.cat = cat
		c.tenants[t.name] = ct
	}
	return c, nil
}

func (c *composer) close() {
	_ = c.cache.ClosePersist()
	if c.dir != "" {
		_ = os.RemoveAll(c.dir)
	}
}

// trace switches span recording on (or off, with nil) for the
// operations, the sources and the store.
func (c *composer) trace(tr *tracer) {
	c.tr = tr
	for _, t := range c.tenants {
		for _, s := range t.srcs {
			s.tr = tr
		}
	}
	if c.store != nil {
		c.store.tr = tr
	}
}

// invalAck is the body of a /v1/invalidate reply.
type invalAck struct {
	Tenant string `json:"tenant"`
	Gen    int64  `json:"gen"`
}

// do runs one operation and returns the response bytes. On a plan miss
// it leaves the query and its plan in c.missed.
func (c *composer) do(ctx context.Context, o op) ([]byte, error) {
	tr := c.tr
	var req server.Request
	s := tr.begin("server.decode")
	err := json.Unmarshal(o.body, &req)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	t := c.tenants[req.Tenant]
	if o.inval {
		s = tr.begin("qcache.invalidate")
		c.cache.InvalidateCatalog(t.cat)
		tr.end(s)
		s = tr.begin("server.encode")
		b, err := json.Marshal(invalAck{req.Tenant, t.cat.Generation()})
		tr.end(s)
		return b, err
	}

	s = tr.begin("parser.parse")
	q, err := ucqn.ParseQuery(req.Query)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	gen := t.cat.Generation()

	s = tr.begin("qcache.plan")
	entry, info := c.cache.Plan(q, t.ps)
	tr.end(s)
	if info.Hit {
		c.planHits++
		tr.rename(s, "qcache.plan_hit")
	} else {
		c.planMisses++
		tr.rename(s, "qcache.plan_miss")
	}
	if err := entry.Err(); err != nil {
		return nil, err
	}

	s = tr.begin("qcache.answers")
	hit := c.cache.Answers(entry, t.cat)
	tr.end(s)
	exec := entry.Exec()
	for i, r := range exec.Rules {
		if !r.False && !hit.Covered[i] {
			c.equivScanned++
		}
	}
	c.equivHits += hit.EquivHits
	c.equivScanned += hit.EquivHits

	resp := &server.Response{Tenant: req.Tenant, Complete: true, Gen: gen}
	var (
		out *engine.Rel
		inc *engine.Incompleteness
	)
	if hit.Full != nil {
		c.ansHits++
		tr.rename(s, "qcache.answers_hit")
		out = hit.Full
		inc = &engine.Incompleteness{RulesTotal: hit.ReusedRules, RulesSurvived: hit.ReusedRules}
	} else {
		c.ansMisses++
		tr.rename(s, "qcache.answers_miss")
		var sub logic.UCQ
		var remap []int
		for i, r := range exec.Rules {
			if !r.False && !hit.Covered[i] {
				sub.Rules = append(sub.Rules, r)
				remap = append(remap, i)
			}
		}
		rels := make([]*engine.Rel, len(exec.Rules))
		opts := engine.EvalOpts{Profile: true, Partial: true, OnRuleDone: func(i int, rel *engine.Rel) { rels[remap[i]] = rel }}
		s = tr.begin("engine.eval")
		_, prof, einc, err := c.rt.Eval(ctx, sub, t.ps, t.cat, opts)
		tr.end(s)
		if c.evalCalls != nil {
			*c.evalCalls = append(*c.evalCalls, evalCall{req.Tenant, sub})
		}
		if err != nil {
			return nil, err
		}
		c.evals++
		c.calls += prof.Calls.Total
		c.deduped += prof.Calls.Deduped
		for _, rp := range prof.Rules {
			for _, sp := range rp.Steps {
				c.bindings += sp.BindingsOut
			}
		}
		// Assemble in rule order, cached rows and live rows alike, and
		// map the live sub-union's rule indexes back (as the facade does).
		out = engine.NewRel()
		for i := range exec.Rules {
			rows := hit.Rows[i]
			if !hit.Covered[i] && rels[i] != nil {
				rows = rels[i].Rows()
			}
			for _, row := range rows {
				out.Add(row)
			}
		}
		if einc != nil {
			for j := range einc.Failed {
				if idx := einc.Failed[j].RuleIndex; idx >= 0 && idx < len(remap) {
					einc.Failed[j].RuleIndex = remap[idx]
				}
			}
			einc.RulesTotal += hit.ReusedRules
			einc.RulesSurvived += hit.ReusedRules
		}
		inc = einc
		s = tr.begin("qcache.store")
		c.cache.StoreAnswers(entry, t.cat, rels)
		tr.end(s)
		resp.Calls = prof.Calls.Total
	}

	s = tr.begin("engine.sorted")
	sorted := out.Sorted()
	tr.end(s)
	resp.Answers = make([][]string, 0, len(sorted))
	for _, row := range sorted {
		r := make([]string, len(row))
		for i, v := range row {
			if v.Null {
				r[i] = "null"
			} else {
				r[i] = v.S
			}
		}
		resp.Answers = append(resp.Answers, r)
	}
	if inc != nil {
		rep := &server.IncompletenessReport{RulesTotal: inc.RulesTotal, RulesSurvived: inc.RulesSurvived}
		for _, f := range inc.Failed {
			fr := server.FailedRule{Rule: f.RuleIndex + 1, Class: string(f.Class), Source: f.Source}
			if f.Err != nil {
				fr.Error = f.Err.Error()
			}
			rep.Failed = append(rep.Failed, fr)
		}
		resp.Incompleteness = rep
		if !inc.Complete() {
			resp.Complete, resp.Degraded = false, true
		}
	}
	s = tr.begin("server.encode")
	b, err := json.Marshal(resp)
	tr.end(s)
	if !info.Hit {
		c.missed = &missedPlan{q: q, ps: t.ps, exec: exec}
	}
	return b, err
}

// traceStreamOps is the traced stream: the set-up warm-up operations
// (untraced in every pass) and the measured operations.
func traceStreamOps(w *workload, fx *fixture, seed int64, n int) (warm, measured []op) {
	ts := newStream(fx, seed, traceStream)
	for i := 0; i < n; i++ {
		measured = append(measured, ts.draw(w, fx))
	}
	return warmOps(w, fx, seed), measured
}

// oracle checks one response of the traced stream against ground truth
// and the invalidation watermark (single goroutine: every later query
// of the tenant must carry at least the acked generation).
type oracle struct {
	fx         *fixture
	watermarks []int64
}

func (or *oracle) check(o op, body []byte) error {
	if o.inval {
		var ack invalAck
		if err := json.Unmarshal(body, &ack); err != nil {
			return err
		}
		if ack.Gen > or.watermarks[o.tenant] {
			or.watermarks[o.tenant] = ack.Gen
		}
		return nil
	}
	var resp server.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Gen < or.watermarks[o.tenant] {
		return fmt.Errorf("generation %d below the invalidation watermark %d", resp.Gen, or.watermarks[o.tenant])
	}
	want, err := or.fx.truthFor(o)
	if err != nil {
		return err
	}
	return checkAnswer(want, &resp)
}

// serverReply runs one operation through Server.Query or
// Server.Invalidate, as the handler would, and renders the response
// with elapsed_ms zeroed.
func serverReply(ctx context.Context, srv *server.Server, o op) ([]byte, time.Duration, error) {
	var req server.Request
	if err := json.Unmarshal(o.body, &req); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if o.inval {
		gen, err := srv.Invalidate(req.Tenant)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(start)
		b, err := json.Marshal(invalAck{req.Tenant, gen})
		return b, d, err
	}
	resp, err := srv.Query(ctx, req.Tenant, req.Query)
	d := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	resp.ElapsedMS = 0
	b, err := json.Marshal(resp)
	return b, d, err
}

// memWriter is a reusable in-memory http.ResponseWriter.
type memWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (m *memWriter) Header() http.Header { return m.h }
func (m *memWriter) WriteHeader(code int) {
	if m.code == 0 {
		m.code = code
	}
}
func (m *memWriter) Write(p []byte) (int, error) {
	m.WriteHeader(http.StatusOK)
	return m.buf.Write(p)
}
func (m *memWriter) reset() {
	clear(m.h)
	m.code = 0
	m.buf.Reset()
}

// handlerCall is one reusable in-memory request to the handler.
type handlerCall struct {
	h    http.Handler
	body []byte
	rd   *bytes.Reader
	req  *http.Request
	w    *memWriter
}

func newHandlerCall(h http.Handler, o op) (*handlerCall, error) {
	path := "/v1/query"
	if o.inval {
		path = "/v1/invalidate"
	}
	hc := &handlerCall{h: h, body: o.body, rd: bytes.NewReader(o.body), w: &memWriter{h: http.Header{}}}
	req, err := http.NewRequest(http.MethodPost, path, nil)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(hc.rd)
	req.Header.Set("Content-Type", "application/json")
	hc.req = req
	return hc, nil
}

func (hc *handlerCall) serve() {
	hc.rd.Reset(hc.body)
	hc.w.reset()
	hc.h.ServeHTTP(hc.w, hc.req)
}

// reply renders the handler's response like serverReply does.
func (hc *handlerCall) reply(o op) ([]byte, error) {
	if hc.w.code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", hc.w.code, bytes.TrimSpace(hc.w.buf.Bytes()))
	}
	if o.inval {
		var ack invalAck
		if err := json.Unmarshal(hc.w.buf.Bytes(), &ack); err != nil {
			return nil, err
		}
		return json.Marshal(ack)
	}
	var resp server.Response
	if err := json.Unmarshal(hc.w.buf.Bytes(), &resp); err != nil {
		return nil, err
	}
	resp.ElapsedMS = 0
	return json.Marshal(&resp)
}

// opKind classifies a traced operation for the coverage report.
func opKind(o op, body []byte) string {
	if o.inval {
		return "invalidate"
	}
	var resp server.Response
	if json.Unmarshal(body, &resp) == nil && resp.Calls > 0 {
		return "live query"
	}
	return "cached query"
}

// runTraced is the --trace 1 run.
func runTraced(ctx context.Context, w *workload, o options, out io.Writer) (*result, error) {
	fx := w.build()
	n := w.traceOps
	if o.traceOps > 0 {
		n = o.traceOps
	}
	warm, ops := traceStreamOps(w, fx, o.seed, n)

	// Three replays of the same stream, interleaved operation by
	// operation so that a slow spell of the host hits all of them alike:
	// the traced composition (A), Server.Query on a fresh server with the
	// same config (B), and the handler on in-memory requests on another
	// (C). B and C must answer byte for byte what A answered.
	comp, err := newComposer(w, fx)
	if err != nil {
		return nil, err
	}
	defer comp.close()
	srv, dir, err := openServer(w, fx)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	hsrv, hdir, err := openServer(w, fx)
	if hdir != "" {
		defer os.RemoveAll(hdir)
	}
	if err != nil {
		return nil, err
	}
	defer hsrv.Close()
	h := hsrv.Handler()

	all := append(append([]op(nil), warm...), ops...)
	want := make([][]byte, 0, len(all))
	mismatch := func(pass string, i int, got []byte) (*result, error) {
		return &result{Correct: false, Attempted: len(ops), Metrics: map[string]metric{}},
			fmt.Errorf("%w: fidelity: %s differs from the traced composition at op %d (%s):\n  traced: %s\n  %s: %s",
				errWrong, pass, i, all[i], want[i], pass, got)
	}
	or := &oracle{fx: fx, watermarks: make([]int64, len(fx.tenants))}
	tr := newTracer()
	probe := &plannerProbe{}
	var (
		evictions0                           int
		queryTime, handlerTime, untracedWall time.Duration
		queries                              int
	)
	wall := make([]time.Duration, len(ops))
	kinds := make([]string, len(ops))
	for i, op := range all {
		measured := i >= len(warm)
		if i == len(warm) {
			evictions0 = comp.cache.Stats().Evictions
			comp.trace(tr)
			comp.counts = counts{} // warm-up is not measured
		}
		comp.missed = nil
		start := time.Now()
		if measured {
			tr.setOp(i - len(warm))
		}
		b, err := comp.do(ctx, op)
		if measured {
			wall[i-len(warm)] = time.Since(start)
		}
		if err != nil {
			return nil, fmt.Errorf("traced op %d (%s): %w", i, op, err)
		}
		want = append(want, b)
		if mp := comp.missed; mp != nil && measured {
			probe.run(mp.q, mp.ps, mp.exec) // off the operation's timed path
		}
		if !measured {
			// Generated ground truth is not cheap: the measured
			// operations are checked after the replay.
			if err := or.check(op, b); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", op, err)
			}
		} else {
			kinds[i-len(warm)] = opKind(op, b)
		}

		start = time.Now()
		got, d, err := serverReply(ctx, srv, op)
		if measured {
			untracedWall += time.Since(start)
			if !op.inval {
				queryTime += d
				queries++
			}
		}
		if err != nil {
			return nil, fmt.Errorf("Server.Query op %d (%s): %w", i, op, err)
		}
		if !bytes.Equal(got, b) {
			return mismatch("Server.Query", i, got)
		}

		hc, err := newHandlerCall(h, op)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		hc.serve()
		if measured && !op.inval {
			handlerTime += time.Since(start)
		}
		if got, err = hc.reply(op); err != nil {
			return nil, fmt.Errorf("handler op %d (%s): %w", i, op, err)
		}
		if !bytes.Equal(got, b) {
			return mismatch("handler", i, got)
		}
	}
	comp.trace(nil)
	evictions := comp.cache.Stats().Evictions - evictions0
	for i, op := range ops {
		if err := or.check(op, want[len(warm)+i]); err != nil {
			return &result{Correct: false, Attempted: len(ops), Metrics: map[string]metric{}},
				fmt.Errorf("%w: traced op %d (%s): %v", errWrong, i, op, err)
		}
	}

	// Exact allocation counts of one warm hit, on B and C.
	probeOp := allocProbe(fx, ops)
	if _, _, err := serverReply(ctx, srv, probeOp); err != nil {
		return nil, err
	}
	queryAllocs := testing.AllocsPerRun(200, func() {
		_, _ = srv.Query(ctx, fx.tenants[probeOp.tenant].name, probeOp.query)
	})
	hc, err := newHandlerCall(h, probeOp)
	if err != nil {
		return nil, err
	}
	hc.serve()
	handlerAllocs := testing.AllocsPerRun(200, hc.serve)

	// A fourth replay, untimed, counts allocations and source calls.
	cnt, err := newComposer(w, fx)
	if err != nil {
		return nil, err
	}
	defer cnt.close()
	for _, op := range warm {
		if _, err := cnt.do(ctx, op); err != nil {
			return nil, err
		}
	}
	var evals []evalCall
	cnt.evalCalls = &evals
	cnt.counts = counts{}
	var srcCalls, srcTuples int64
	for _, t := range cnt.tenants {
		for _, s := range t.srcs {
			s.calls.Store(0)
			s.tuples.Store(0)
		}
	}
	for i, op := range ops {
		b, err := cnt.do(ctx, op)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b, want[len(warm)+i]) {
			return mismatch("count pass", len(warm)+i, b)
		}
	}
	for _, t := range cnt.tenants {
		for _, s := range t.srcs {
			srcCalls += s.calls.Load()
			srcTuples += s.tuples.Load()
		}
	}

	// Workload guarantees.
	nq := 0
	for _, op := range ops {
		if !op.inval {
			nq++
		}
	}
	switch w.name {
	case "hot-hits":
		if comp.planMisses != 0 || srcCalls != 0 {
			return nil, fmt.Errorf("hot-hits traced replay was not all warm hits: %d plan misses, %d source calls", comp.planMisses, srcCalls)
		}
	case "adhoc-plans":
		if comp.planMisses != nq {
			return nil, fmt.Errorf("adhoc-plans: %d plan misses for %d generated queries; canonical keys repeated", comp.planMisses, nq)
		}
	case "churn-eval":
		if comp.planMisses != 0 {
			return nil, fmt.Errorf("churn-eval: %d plan misses; plans must always hit", comp.planMisses)
		}
	}

	lt := analyze(tr, len(ops))
	nops := float64(len(ops))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / nops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var tracedWall time.Duration
	for _, d := range wall {
		tracedWall += d
	}
	p := probe
	m := map[string]metric{
		"server.handler_us":     {ratio(float64(handlerTime.Nanoseconds())/1e3, float64(queries)), "us"},
		"server.query_us":       {ratio(float64(queryTime.Nanoseconds())/1e3, float64(queries)), "us"},
		"server.decode_us":      {us(lt.self["server.decode"]), "us"},
		"server.encode_us":      {us(lt.self["server.encode"]), "us"},
		"server.query_allocs":   {queryAllocs, "allocs"},
		"server.handler_allocs": {handlerAllocs, "allocs"},

		"parser.parse_us":     {us(lt.self["parser.parse"]), "us"},
		"parser.parse_allocs": {parseAllocs(ops), "allocs"},

		"qcache.plan_hit_us":    {us(lt.self["qcache.plan_hit"]), "us"},
		"qcache.plan_miss_us":   {us(lt.self["qcache.plan_miss"]), "us"},
		"qcache.plan_hit_ratio": {ratio(float64(comp.planHits), float64(comp.planHits+comp.planMisses)), "ratio"},

		"planner.minimize_us":              {us(p.minimize), "us"},
		"planner.canonicalize_us":          {us(p.canon), "us"},
		"planner.reorder_us":               {us(p.reorder), "us"},
		"planner.adorn_us":                 {us(p.adorn), "us"},
		"planner.feasible_us":              {us(p.feasible), "us"},
		"planner.feasible_exhausted_share": {ratio(float64(p.exhausted), float64(p.n)), "ratio"},

		"qcache.answers_hit_us":   {us(lt.self["qcache.answers_hit"]), "us"},
		"qcache.answers_miss_us":  {us(lt.self["qcache.answers_miss"]), "us"},
		"qcache.answer_hit_ratio": {ratio(float64(comp.ansHits), float64(comp.ansHits+comp.ansMisses)), "ratio"},
		"qcache.equiv_hit_ratio":  {ratio(float64(comp.equivHits), float64(comp.equivScanned)), "ratio"},
		"qcache.store_us":         {us(lt.self["qcache.store"]), "us"},
		"qcache.invalidate_us":    {us(lt.self["qcache.invalidate"]), "us"},
		"qcache.evictions_per_op": {float64(evictions) / nops, "count"},

		"engine.eval_us":           {us(lt.self["engine.eval"]), "us"},
		"engine.bindings_per_eval": {ratio(float64(comp.bindings), float64(comp.evals)), "count"},
		"engine.eval_allocs":       {evalAllocs(ctx, fx, evals), "allocs"},
		"engine.dedup_ratio":       {ratio(float64(comp.deduped), float64(comp.deduped+comp.calls)), "ratio"},
		"engine.sorted_us":         {us(lt.self["engine.sorted"]), "us"},

		"sources.call_us":         {us(lt.self["sources.call"]), "us"},
		"sources.calls_per_eval":  {ratio(float64(srcCalls), float64(cnt.evals)), "count"},
		"sources.tuples_per_call": {ratio(float64(srcTuples), float64(srcCalls)), "count"},
		"sources.calls_per_query": {ratio(float64(srcCalls), float64(nq)), "count"},

		"persist.append_us":             {us(lt.self["persist.append"]), "us"},
		"persist.tombstone_us":          {us(lt.self["persist.tombstone"]), "us"},
		"persist.bytes_per_answer_byte": {persistRatio(comp), "ratio"},

		"trace.overhead_pct": {ratio(float64(tracedWall-untracedWall)*100, float64(untracedWall)), "%"},
		"trace.coverage_pct": {ratio(float64(lt.covered)*100, float64(tracedWall)), "%"},
	}

	fmt.Fprintf(out, "traced replay: %d warm-up + %d measured operations (%d queries), %d plan misses probed; fidelity: Server.Query and handler byte-identical\n",
		len(warm), len(ops), nq, p.n)
	coverageReport(out, lt, wall, kinds)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	loadChecks(out, w.name, m)
	return &result{Correct: true, Attempted: len(ops), Metrics: m}, nil
}

// parseAllocs is the mean allocation count of ParseQuery over the
// stream's queries, each text measured with testing.AllocsPerRun (which
// warms up first and floors the mean, so a sync.Pool refilled after a
// collection does not leak into the count).
func parseAllocs(ops []op) float64 {
	memo := map[string]float64{}
	var sum float64
	n := 0
	for _, o := range ops {
		if o.inval {
			continue
		}
		a, ok := memo[o.query]
		if !ok {
			a = testing.AllocsPerRun(20, func() { _, _ = ucqn.ParseQuery(o.query) })
			memo[o.query] = a
		}
		sum += a
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// evalAllocs is the mean allocation count of the replay's Eval calls,
// each distinct (tenant, sub-union) measured with testing.AllocsPerRun
// on a fresh catalog with the options the server path uses.
func evalAllocs(ctx context.Context, fx *fixture, evals []evalCall) float64 {
	tenants := map[string]*tenant{}
	cats := map[string]*ucqn.Catalog{}
	for _, t := range fx.tenants {
		tenants[t.name] = t
		cats[t.name] = t.in.MustCatalog(t.ps)
	}
	rt := engine.DefaultRuntime()
	opts := engine.EvalOpts{Profile: true, Partial: true, OnRuleDone: func(int, *engine.Rel) {}}
	memo := map[string]float64{}
	var sum float64
	for _, e := range evals {
		key := e.tenant + "\x00" + e.sub.String()
		a, ok := memo[key]
		if !ok {
			t, cat := tenants[e.tenant], cats[e.tenant]
			a = testing.AllocsPerRun(5, func() { _, _, _, _ = rt.Eval(ctx, e.sub, t.ps, cat, opts) })
			memo[key] = a
		}
		sum += a
	}
	if len(evals) == 0 {
		return 0
	}
	return sum / float64(len(evals))
}

func persistRatio(c *composer) float64 {
	if c.store == nil || c.store.rowBytes == 0 {
		return 0
	}
	return float64(c.written.Load()) / float64(c.store.rowBytes)
}

// allocProbe is the warm hit the exact allocation counts are taken on:
// tenant-0's first mix query, or the last generated query of the
// stream.
func allocProbe(fx *fixture, ops []op) op {
	if fx.mix != nil {
		return mixOp(fx, 0, 0)
	}
	for i := len(ops) - 1; i >= 0; i-- {
		if !ops[i].inval {
			return ops[i]
		}
	}
	panic("no query in the traced stream")
}

// layerTimes is the analysis of one traced replay.
type layerTimes struct {
	self    map[string]time.Duration // self time per span name
	covered time.Duration            // time under top-level spans
	perOp   []time.Duration          // time under top-level spans, per op
}

// analyze computes self times: a span's duration minus the part of its
// interval its child spans cover (children of one parent may overlap —
// the engine issues source calls from a worker pool — so the covered
// part is the union of their intervals, credited to the children).
func analyze(tr *tracer, nops int) layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, perOp: make([]time.Duration, nops)}
	children := map[int32][]span{}
	for _, s := range tr.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i, s := range tr.spans {
		d := s.end - s.start
		if s.parent < 0 {
			lt.covered += d
			lt.perOp[s.op] += d
		}
		kids := children[int32(i)]
		if len(kids) == 0 {
			if s.parent < 0 {
				lt.self[s.name] += d
			} // a child's time is credited by its parent, below
			continue
		}
		byName := map[string][]span{}
		for _, k := range kids {
			byName[k.name] = append(byName[k.name], k)
		}
		var under time.Duration
		for name, ks := range byName {
			u := union(ks)
			lt.self[name] += u
			under += u
		}
		lt.self[s.name] += d - under
	}
	return lt
}

// union is the total length of the spans' intervals.
func union(ks []span) time.Duration {
	sort.Slice(ks, func(i, j int) bool { return ks[i].start < ks[j].start })
	var total time.Duration
	curS, curE := ks[0].start, ks[0].end
	for _, k := range ks[1:] {
		if k.start > curE {
			total += curE - curS
			curS, curE = k.start, k.end
		} else if k.end > curE {
			curE = k.end
		}
	}
	return total + curE - curS
}

// coverageReport names every operation class whose time outside layer
// spans exceeds a tenth of its wall time.
func coverageReport(out io.Writer, lt layerTimes, wall []time.Duration, kinds []string) {
	type agg struct {
		n            int
		wall, inside time.Duration
	}
	byKind := map[string]*agg{}
	for i, k := range kinds {
		a := byKind[k]
		if a == nil {
			a = &agg{}
			byKind[k] = a
		}
		a.n++
		a.wall += wall[i]
		a.inside += lt.perOp[i]
	}
	var ks []string
	for k := range byKind {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		a := byKind[k]
		share := 1 - float64(a.inside)/float64(a.wall)
		note := ""
		if share > 0.1 {
			note = "  <- more than a tenth of the time is outside layer spans"
		}
		fmt.Fprintf(out, "  coverage %-13s n=%-6d mean %9.2f us, outside spans %5.1f%%%s\n",
			k, a.n, float64(a.wall.Nanoseconds())/1e3/float64(a.n), share*100, note)
	}
}

// loadChecks prints whether the traced run shows the workload loading
// the layer it was chosen for. They are reported, not enforced: a later
// optimisation may legitimately shift the shares.
func loadChecks(out io.Writer, name string, m map[string]metric) {
	v := func(k string) float64 { return m[k].Value }
	var ok bool
	var what string
	switch name {
	case "churn-eval":
		eng := v("engine.eval_us") + v("sources.call_us")
		ok = v("qcache.plan_hit_ratio") == 1
		for k, x := range m {
			if x.Unit == "us" && k != "engine.eval_us" && k != "sources.call_us" &&
				k != "server.handler_us" && k != "server.query_us" && x.Value > eng {
				ok = false
			}
		}
		what = "engine.eval_us + sources.call_us is the largest share, plan_hit_ratio is 1"
	case "adhoc-plans":
		ok = v("qcache.plan_miss_us")+v("qcache.answers_miss_us") > v("engine.eval_us")
		what = "plan_miss_us + answers_miss_us exceeds engine.eval_us"
	case "hot-hits":
		ok = v("sources.calls_per_query") == 0 && v("qcache.plan_hit_ratio") == 1
		what = "no source calls, no plan misses"
	}
	verdict := "holds"
	if !ok {
		verdict = "DOES NOT HOLD"
	}
	fmt.Fprintf(out, "load check (%s): %s: %s\n", name, what, verdict)
}
