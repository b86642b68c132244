package main

// The end-to-end run: set up (fixtures, ground truth, server boot,
// warm-up) several times and keep the last, then drive the real HTTP
// handler on a loopback listener with a closed loop of one client for
// the timed window, checking every response.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	ucqn "repro"
	"repro/internal/server"
)

const (
	// clients is the closed loop's client count: one tenant
	// application that waits for each reply, over one keep-alive
	// connection. With one request in flight a request never queues
	// behind another one for a CPU, so on a small shared machine the
	// latencies measure the request's own path, not the scheduler.
	clients = 1
	// Set-up runs at least minSetups times and, while all set-ups so far
	// took under setupBudget, up to maxSetups times (a cheap set-up is
	// a noisy one); setup_s is the median.
	minSetups   = 3
	maxSetups   = 100
	setupBudget = time.Second
	// httpWarmOps is each client's untimed request count before the
	// window (connections open, lazy paths run).
	httpWarmOps = 50
)

// scratchDir returns a fresh directory for persistence logs under the
// working directory's .bench_build, so a run writes only inside its
// checkout.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "servebench-")
}

// deployment is one booted server with its listener, fixture and
// warmed clients.
type deployment struct {
	w       *workload
	fx      *fixture
	srv     *server.Server
	hs      *http.Server
	ln      net.Listener
	dir     string
	done    chan struct{}
	base    string
	clients []*client
	plant   *planter
	// start is when the timed window began.
	start time.Time

	// watermarks[t] is the highest generation an acked invalidation of
	// tenant t reported; a query that starts after the ack must come
	// back at or past it.
	watermarks []atomic.Int64
	ctx        context.Context
	cancel     context.CancelFunc
	mu         sync.Mutex
	violation  error
}

// openServer builds a server over fx's tenants; with persist, the
// shared cache is backed by a log in a fresh directory.
func openServer(w *workload, fx *fixture) (*server.Server, string, error) {
	var cfg server.Config
	dir := ""
	if w.persist {
		d, err := scratchDir()
		if err != nil {
			return nil, "", err
		}
		dir, cfg.PersistDir = d, d
	}
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, dir, err
	}
	for _, t := range fx.tenants {
		if _, err := srv.AddTenant(t.name, t.ps, t.in.MustCatalog(t.ps), ucqn.Budget{}); err != nil {
			_ = srv.Close()
			return nil, dir, err
		}
	}
	return srv, dir, nil
}

// warmOps lists the in-process warm-up operations: every (tenant,
// query) of a fixed mix once, then the workload's warmOps operations
// drawn from the warm-up stream.
func warmOps(w *workload, fx *fixture, seed int64) []op {
	var ops []op
	if fx.mix != nil {
		for t := range fx.tenants {
			for qi := range fx.mix {
				ops = append(ops, mixOp(fx, t, qi))
			}
		}
	}
	ws := newStream(fx, seed, warmStream)
	for i := 0; i < w.warmOps; i++ {
		ops = append(ops, ws.draw(w, fx))
	}
	return ops
}

// setup builds the fixture and ground truth, boots the server on a
// loopback listener and warms the caches and the client connections.
func setup(ctx context.Context, w *workload, seed int64, plant *planter) (*deployment, error) {
	d := &deployment{w: w, fx: w.build(), done: make(chan struct{}), plant: plant}
	d.ctx, d.cancel = context.WithCancel(ctx)
	d.watermarks = make([]atomic.Int64, len(d.fx.tenants))
	srv, dir, err := openServer(w, d.fx)
	d.srv, d.dir = srv, dir
	if err != nil {
		d.close()
		return nil, err
	}
	for _, o := range warmOps(w, d.fx, seed) {
		resp, err := srv.Query(ctx, d.fx.tenants[o.tenant].name, o.query)
		if err == nil {
			err = d.check(o, resp)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up %s: %w", o, err)
		}
	}
	d.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.base = "http://" + d.ln.Addr().String()
	d.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(d.ln) // returns ErrServerClosed on close
	}()
	for i := 0; i < clients; i++ {
		d.clients = append(d.clients, newClient(d.fx, seed, i))
	}
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			d.loop(c, httpWarmOps, time.Time{}, false)
		}(c)
	}
	wg.Wait()
	if d.violation != nil {
		d.close()
		return nil, d.violation
	}
	return d, nil
}

// check is the oracle for one response.
func (d *deployment) check(o op, resp *server.Response) error {
	want, err := d.fx.truthFor(o)
	if err != nil {
		return err
	}
	return checkAnswer(want, resp)
}

// fail records the first violation and stops every client.
func (d *deployment) fail(err error) {
	d.mu.Lock()
	if d.violation == nil {
		d.violation = err
	}
	d.mu.Unlock()
	d.cancel()
}

// close stops the clients, the listener and the server, waits for the
// serving goroutine, flushes persistence and removes the scratch
// directory.
func (d *deployment) close() {
	d.cancel()
	for _, c := range d.clients {
		c.hc.CloseIdleConnections()
	}
	if d.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = d.hs.Shutdown(ctx)
		cancel()
		<-d.done
	}
	if d.srv != nil {
		_ = d.srv.Close()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}

// client is one closed-loop caller with its own keep-alive connection.
// Its timed-window record lives in log (latencies by class), perSecond
// (queries completed in each whole second of the window), calls (the
// source calls its queries reported) and, for generated queries,
// generated (answer digests for the oracle that runs after the window).
type client struct {
	id     int
	hc     *http.Client
	stream *stream

	log       *sampleLog
	perSecond []int
	calls     int
	generated []answerDigest
	attempted int
	failed    int
	firstFail error
}

func newClient(fx *fixture, seed int64, id int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, hc: &http.Client{Transport: tr}, stream: newStream(fx, seed, id)}
}

// do sends one operation and decodes the reply. For an invalidation the
// returned response carries only the acked generation.
func (c *client) do(ctx context.Context, base string, o op) (*server.Response, error) {
	path := "/v1/query"
	if o.inval {
		path = "/v1/invalidate"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	hr, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hr.Body, 512))
		return nil, fmt.Errorf("status %d: %s", hr.StatusCode, bytes.TrimSpace(msg))
	}
	var resp server.Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("undecodable body: %w", err)
	}
	return &resp, nil
}

// checkAnswer is the oracle for one response: a complete response must
// equal the ground truth exactly (rows and order), and a shed or
// incomplete one must be a subset of it.
func checkAnswer(want [][]string, resp *server.Response) error {
	if resp.Complete && !resp.Shed {
		if len(resp.Answers) != len(want) {
			return fmt.Errorf("complete response has %d rows, ground truth %d", len(resp.Answers), len(want))
		}
		for i := range want {
			if !equalRow(resp.Answers[i], want[i]) {
				return fmt.Errorf("complete response row %d is %q, ground truth %q", i, resp.Answers[i], want[i])
			}
		}
		return nil
	}
	truth := make(map[string]bool, len(want))
	for _, r := range want {
		truth[rowKey(r)] = true
	}
	for _, r := range resp.Answers {
		if !truth[rowKey(r)] {
			return fmt.Errorf("incomplete response carries %q, not a certain answer", r)
		}
	}
	return nil
}

func equalRow(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func rowKey(r []string) string {
	b, _ := json.Marshal(r) // []string always marshals
	return string(b)
}

// planter injects the self-test faults into the client's view: the
// first query response gets a fabricated row (wrong-row), or the first
// query response that started after an invalidation ack gets a
// generation below the watermark (stale-gen).
type planter struct {
	kind string
	done atomic.Bool
}

func (p *planter) apply(o op, wm int64, resp *server.Response) {
	if p == nil || o.inval {
		return
	}
	switch {
	case p.kind == "wrong-row" && p.done.CompareAndSwap(false, true):
		resp.Answers = append(resp.Answers, []string{"planted", "row"})
	case p.kind == "stale-gen" && wm > 0 && p.done.CompareAndSwap(false, true):
		resp.Gen = wm - 1
	}
}

// loop runs client c's closed loop: n operations, or (n < 0) until the
// deadline. Fixed-mix responses are checked against the ground truth as
// they arrive, and every query against the invalidation watermark; the
// first violation stops all clients. A timed loop records into the
// client's log.
func (d *deployment) loop(c *client, n int, deadline time.Time, timed bool) {
	for i := 0; n < 0 || i < n; i++ {
		if d.ctx.Err() != nil || (n < 0 && !time.Now().Before(deadline)) {
			return
		}
		o := c.stream.draw(d.w, d.fx)
		seq := c.stream.seq - 1
		wm := d.watermarks[o.tenant].Load()
		start := time.Now()
		resp, err := c.do(d.ctx, d.base, o)
		lat := time.Since(start)
		if d.ctx.Err() != nil {
			return // the run is stopping; this reply is not a sample
		}
		if timed {
			c.attempted++
		}
		if err != nil {
			if timed {
				c.failed++
			}
			if c.firstFail == nil {
				c.firstFail = fmt.Errorf("client %d op %d (%s): %w", c.id, seq, o, err)
			}
			continue
		}
		class := classInval
		if o.inval {
			for cur := d.watermarks[o.tenant].Load(); resp.Gen > cur; cur = d.watermarks[o.tenant].Load() {
				if d.watermarks[o.tenant].CompareAndSwap(cur, resp.Gen) {
					break
				}
			}
		} else {
			if timed {
				d.plant.apply(o, wm, resp)
			}
			if resp.Gen < wm {
				d.fail(fmt.Errorf("%w: client %d op %d (%s): generation %d below the invalidation watermark %d",
					errWrong, c.id, seq, o, resp.Gen, wm))
				return
			}
			complete := resp.Complete && !resp.Shed
			switch {
			case o.qi < 0 && timed && complete:
				c.generated = append(c.generated, answerDigest{seq: seq, rows: len(resp.Answers), hash: rowsHash(resp.Answers)})
			case o.qi < 0 && timed:
				c.generated = append(c.generated, answerDigest{seq: seq, resp: resp})
			default:
				if err := d.check(o, resp); err != nil {
					d.fail(fmt.Errorf("%w: client %d op %d (%s): %v", errWrong, c.id, seq, o, err))
					return
				}
			}
			switch {
			case !complete:
				class = classIncomplete
			case resp.Calls > 0:
				class = classLive
			default:
				class = classCached
			}
		}
		if timed {
			if s := int(start.Add(lat).Sub(d.start) / time.Second); !o.inval && s < len(c.perSecond) {
				c.perSecond[s]++
			}
			c.calls += resp.Calls
			if err := c.log.add(class, lat); err != nil {
				d.fail(fmt.Errorf("recording a sample: %w", err))
				return
			}
		}
	}
}

// window is what the timed loop measured.
type window struct {
	elapsed    time.Duration
	allocBytes uint64
}

// window runs every client's closed loop for dur.
func (d *deployment) window(dur time.Duration) (*window, error) {
	for _, c := range d.clients {
		// Room for 25k operations a second per client; the log grows if
		// a faster program outruns it.
		log, err := newSampleLog(int(dur.Seconds()+1) * 25000)
		if err != nil {
			return nil, err
		}
		c.log = log
		c.perSecond = make([]int, int(dur/time.Second))
		c.firstFail = nil
	}
	win := &window{}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	d.start = start
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			d.loop(c, -1, deadline, true)
		}(c)
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	win.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return win, nil
}

// checkGenerated is the oracle for the window's generated queries: it
// redraws each client's stream (a pure function of the seed) up to every
// recorded operation and compares the response digest with naive ground
// truth.
func (d *deployment) checkGenerated(seed int64) error {
	for _, c := range d.clients {
		s := newStream(d.fx, seed, c.id)
		for _, g := range c.generated {
			for s.seq < g.seq {
				s.draw(d.w, d.fx)
			}
			o := s.draw(d.w, d.fx)
			want, err := d.fx.truthFor(o)
			if err != nil {
				return fmt.Errorf("client %d op %d (%s): ground truth: %w", c.id, g.seq, o, err)
			}
			if g.resp != nil {
				err = checkAnswer(want, g.resp)
			} else if g.rows != len(want) || g.hash != rowsHash(want) {
				err = fmt.Errorf("complete response (%d rows) differs from the ground truth (%d rows)", g.rows, len(want))
			}
			if err != nil {
				return fmt.Errorf("%w: client %d op %d (%s): %v", errWrong, c.id, g.seq, o, err)
			}
		}
	}
	return nil
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	// Twice: the first collection moves sync.Pool contents to the
	// victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runServed is the --trace 0 run.
func runServed(ctx context.Context, w *workload, o options, out io.Writer) (*result, error) {
	var plant *planter
	if o.plant != "" {
		plant = &planter{kind: o.plant}
	}
	var (
		d      *deployment
		setups []float64
	)
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		d, err = setup(ctx, w, o.seed, plant)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()

	before := d.srv.Cache().Stats()
	win, err := d.window(time.Duration(o.seconds) * time.Second)
	if err != nil {
		return nil, err
	}
	planMisses := d.srv.Cache().Stats().PlanMisses - before.PlanMisses
	heapMB := liveHeapMB()
	err = d.violation
	if err == nil {
		err = d.checkGenerated(o.seed)
	}
	res, serr := summarize(w, win, d.clients, median(setups), heapMB, planMisses, out)
	if err == nil {
		err = serr
	}
	if errors.Is(err, errWrong) {
		res.Correct = false
	}
	return res, err
}

// summarize computes the end-to-end metrics, prints the full report
// (every class percentile the sample supports) and returns the result.
func summarize(w *workload, win *window, cs []*client, setupS, heapMB float64, planMisses int, out io.Writer) (*result, error) {
	var byClass [4][]float64
	var all []float64
	var attempted, failed, calls int
	var firstFail error
	perSecond := make([]float64, len(cs[0].perSecond))
	for _, c := range cs {
		for s, n := range c.perSecond {
			perSecond[s] += float64(n)
		}
		attempted += c.attempted
		failed += c.failed
		calls += c.calls
		if firstFail == nil {
			firstFail = c.firstFail
		}
		for i := 0; i < c.log.n; i++ {
			class, lat := c.log.at(i)
			ms := float64(lat.Nanoseconds()) / 1e6
			byClass[class] = append(byClass[class], ms)
			if class != classInval {
				all = append(all, ms)
			}
		}
		c.log.free()
	}
	for _, v := range append(byClass[:], all) {
		sort.Float64s(v)
	}
	cached, live, inval := byClass[classCached], byClass[classLive], byClass[classInval]
	incomplete, queries := len(byClass[classIncomplete]), len(all)
	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if queries == 0 {
		return res, errors.New("no query completed in the timed window")
	}
	secs := win.elapsed.Seconds()
	res.Metrics["setup_s"] = metric{setupS, "s"}
	// The mean of the middle half of the window's seconds: a few seconds
	// in which the host lent the CPUs elsewhere do not move it.
	res.Metrics["qps"] = metric{midMean(perSecond), "queries/s"}
	res.Metrics["p50_ms"] = metric{quantile(all, 0.50), "ms"}
	res.Metrics["alloc_kb_per_query"] = metric{float64(win.allocBytes) / 1024 / float64(queries), "KB"}
	res.Metrics["heap_mb"] = metric{heapMB, "MB"}

	fmt.Fprintf(out, "window: %.2fs, %d operations attempted, %d failed, %d queries (%d cached, %d live, %d incomplete), %d invalidations, %d plan misses\n",
		secs, attempted, failed, queries, len(cached), len(live), incomplete, len(inval), planMisses)
	report := func(name string, v []float64, p float64) {
		if beyond := int(float64(len(v)) * (1 - p)); beyond >= 10 {
			fmt.Fprintf(out, "  %-20s %10.4f ms   (n=%d)\n", name, quantile(v, p), len(v))
		} else if len(v) > 0 {
			fmt.Fprintf(out, "  %-20s %10s      (n=%d: fewer than 10 samples beyond the percentile)\n", name, "n/a", len(v))
		}
	}
	report("cached_p50_ms", cached, 0.50)
	report("cached_p99_ms", cached, 0.99)
	report("live_p50_ms", live, 0.50)
	report("live_p99_ms", live, 0.99)
	report("inval_p50_ms", inval, 0.50)
	report("inval_p90_ms", inval, 0.90)
	fmt.Fprintf(out, "  %-20s %10.4f queries/s\n", "window_mean_qps", float64(queries)/secs)
	report("p90_ms", all, 0.90)
	fmt.Fprintf(out, "  %-20s %10.4f calls\n", "calls_per_query", float64(calls)/float64(queries))
	fmt.Fprintf(out, "  %-20s %10.4f\n", "incomplete_share", float64(incomplete)/float64(queries))
	fmt.Fprintf(out, "  %-20s %10.4f\n", "error_share", float64(failed)/float64(attempted))
	for _, name := range []string{"setup_s", "qps", "p50_ms", "alloc_kb_per_query", "heap_mb"} {
		m := res.Metrics[name]
		fmt.Fprintf(out, "  %-20s %10.4f %s\n", name, m.Value, m.Unit)
	}
	if failed > 0 {
		fmt.Fprintf(out, "first failure: %v\n", firstFail)
	}
	// Workload guarantee: hot-hits is all warm hits.
	if w.name == "hot-hits" && (calls != 0 || planMisses != 0 || len(live) != 0) {
		return res, fmt.Errorf("hot-hits window was not all warm hits: %d source calls, %d plan misses", calls, planMisses)
	}
	return res, nil
}

// quantile returns the p-quantile of sorted values (nearest rank).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// midMean is the mean of the middle half of v (its interquartile mean).
func midMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
