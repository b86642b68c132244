package engine

// Pipelined streaming execution. The materializing evaluator finishes
// step k over the *whole* binding set before step k+1 issues its first
// source call, so a slow or high-fanout early step delays every answer
// to the end of the plan. Here each rule's plan steps become pipeline
// stages connected by bounded channels carrying columnar binding
// batches (colBatch; see columnar.go): step k+1 calls its source for
// the first batches while step k is still fetching later ones, and head
// tuples reach the caller as soon as the last stage produces them. Each
// stage still runs through the Runtime — per-step call deduplication
// (extended across batches by a per-stage memo), the bounded worker
// pool, the per-source in-flight cap, and the retry policy all apply
// per stage — so a streamed run issues exactly the calls a materialized
// run would, and the drained answer set is byte-identical: stages are
// single goroutines consuming batches in order, and applyStepCol fans
// results back out in input-row order, so rows are emitted in the same
// order materializing evaluation would add them.
//
// Ordering and teardown guarantees:
//
//   - Stream: rules execute in rule order, one pipeline at a time;
//     emission order equals Answer's insertion order exactly.
//   - StreamParallel: all rule pipelines run concurrently and their
//     emissions interleave; the drained set is still equal (set
//     semantics), but insertion order is scheduling-dependent.
//   - Close (or cancelling the caller's context) tears down every stage:
//     all pipeline goroutines exit before Close returns; no goroutine
//     outlives the stream.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/logic"
	"repro/internal/sources"
)

// Stream is a pull-style iterator over the head tuples of a streamed
// plan execution. The usual loop is
//
//	s, err := rt.Stream(ctx, q, ps, cat)
//	if err != nil { ... }
//	defer s.Close()
//	for s.Next() {
//	    use(s.Tuple())
//	}
//	if err := s.Err(); err != nil { ... }
//
// A Stream is single-consumer: Next/Tuple/Err/Close must be called from
// one goroutine. Close is idempotent, releases every pipeline goroutine,
// and must be called even after Next returned false (defer it).
type Stream struct {
	rows   chan []Row
	cancel context.CancelFunc
	wg     sync.WaitGroup // every pipeline goroutine, incl. the driver

	cur []Row // batch being handed out
	idx int   // next index into cur

	start    time.Time
	resident inFlightGauge // bindings live across all stages

	mu     sync.Mutex
	err    error
	closed bool
	ttf    time.Duration

	prof     *Profile
	inc      *Incompleteness // partial-results report; nil in strict mode
	profDone chan struct{}   // closed when prof (and inc) are fully assembled
}

// Next advances to the next tuple, blocking until one is available. It
// returns false when the stream is exhausted, failed, or closed; check
// Err afterwards.
func (s *Stream) Next() bool {
	if s.idx < len(s.cur) {
		s.idx++
		return true
	}
	for batch := range s.rows {
		if len(batch) == 0 {
			continue
		}
		s.cur, s.idx = batch, 1
		return true
	}
	return false
}

// Tuple returns the current tuple. It is only valid after Next returned
// true, and until the next call to Next.
func (s *Stream) Tuple() Row {
	return s.cur[s.idx-1]
}

// Err returns the first failure of the pipeline, or nil. Cancellations
// caused by Close itself are not errors.
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close tears the pipeline down: every stage is cancelled and Close
// blocks until all pipeline goroutines have exited. It is idempotent and
// returns Err.
func (s *Stream) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cancel()
	}
	s.mu.Unlock()
	s.cur, s.idx = nil, 0 // invalidate the cursor (Close is consumer-side)
	// Drain so stages blocked on sending can exit, then wait for them.
	for range s.rows {
	}
	s.wg.Wait()
	return s.Err()
}

// Drain consumes the rest of the stream into a Rel and closes it. On a
// stream fresh from Stream (rule-ordered pipelines), the result is
// byte-identical to materializing evaluation: same rows, same insertion
// order.
func (s *Stream) Drain() (*Rel, error) {
	out := NewRel()
	for s.Next() {
		out.Add(s.Tuple())
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// Profile returns the execution profile once the stream has finished
// (exhausted, failed, or closed) and reports whether it is complete. It
// includes per-stage traffic and busy time, the rules' wall-clock, the
// time to first tuple, and the peak number of bindings resident in the
// pipeline.
func (s *Stream) Profile() (Profile, bool) {
	select {
	case <-s.profDone:
		return *s.prof, true
	default:
		return Profile{}, false
	}
}

// Incomplete returns the degradation report of a partial-results stream
// once it has finished (exhausted, failed, or closed). ok is false while
// the stream is still running or when the stream was not started with
// StreamOpts.Partial.
func (s *Stream) Incomplete() (Incompleteness, bool) {
	select {
	case <-s.profDone:
		if s.inc == nil {
			return Incompleteness{}, false
		}
		return *s.inc, true
	default:
		return Incompleteness{}, false
	}
}

// recordFailure logs a dropped disjunct of a partial-results stream.
func (s *Stream) recordFailure(i int, rule logic.CQ, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inc.record(i, rule, err)
}

// fail records the pipeline's first real failure and cancels every
// stage. Context errors after the consumer closed the stream are the
// teardown working as intended, not failures.
func (s *Stream) fail(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	skip := s.closed && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if s.err == nil && !skip {
		s.err = err
	}
	s.mu.Unlock()
	s.cancel()
}

// emit delivers one batch of head rows to the consumer, stamping the
// time to first tuple. It returns false when the pipeline is cancelled.
func (s *Stream) emit(ctx context.Context, batch []Row) bool {
	if len(batch) == 0 {
		return true
	}
	s.mu.Lock()
	if s.ttf == 0 {
		s.ttf = time.Since(s.start)
	}
	s.mu.Unlock()
	select {
	case s.rows <- batch:
		return true
	case <-ctx.Done():
		return false
	}
}

// rulePipeline is one rule's compiled plan.
type rulePipeline struct {
	idx   int // position in the executed union (for failure reports)
	rule  logic.CQ
	steps []access.AdornedLiteral
}

// StreamOpts selects how a streamed execution runs.
type StreamOpts struct {
	// Parallel runs all rule pipelines concurrently; emission
	// interleaving becomes scheduling-dependent.
	Parallel bool
	// Partial enables partial-results mode: a rule pipeline that fails
	// terminally is torn down alone — its failure recorded, its rows
	// discarded — and the remaining rules keep streaming. To keep the
	// drained answer byte-identical to a materialized degraded run, each
	// rule's head rows are held back until its pipeline completes (a
	// disjunct's answers are only certain once the whole disjunct
	// succeeded), so Partial trades time-to-first-tuple within a rule for
	// the certified-underestimate guarantee.
	Partial bool
}

// Stream starts pipelined evaluation of the executable plan: one
// pipeline per rule, rules in order (rule k+1's pipeline starts when
// rule k's finishes), stages within a rule overlapping. The answer
// stream, drained, is byte-identical to rt.Answer on the same inputs —
// same rows in the same order — and issues the same source calls.
// Batch size and per-stage buffering come from rt.BatchSize and
// rt.StageBuffer.
//
// The error return covers plan compilation (a rule not executable as
// written); runtime failures surface through Stream.Err.
func (rt *Runtime) Stream(ctx context.Context, u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Stream, error) {
	return rt.StreamEval(ctx, u, ps, cat, StreamOpts{})
}

// StreamParallel is Stream with all rule pipelines running concurrently
// (the paper's "execute each rule separately, possibly in parallel").
// Emission interleaving is scheduling-dependent; the drained answer set
// is still equal to rt.Answer's.
func (rt *Runtime) StreamParallel(ctx context.Context, u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Stream, error) {
	return rt.StreamEval(ctx, u, ps, cat, StreamOpts{Parallel: true})
}

// StreamEval starts pipelined evaluation with explicit options; Stream
// and StreamParallel are thin wrappers over it.
func (rt *Runtime) StreamEval(ctx context.Context, u logic.UCQ, ps *access.Set, cat *sources.Catalog, o StreamOpts) (*Stream, error) {
	var pipes []rulePipeline
	for i, rule := range u.Rules {
		if rule.False {
			continue
		}
		steps, ok := access.AdornInOrder(rule.Body, ps)
		if !ok {
			return nil, fmt.Errorf("engine: rule is not executable as written: %s", rule)
		}
		pipes = append(pipes, rulePipeline{idx: i, rule: rule, steps: steps})
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		rows:     make(chan []Row, rt.stageBuffer()),
		cancel:   cancel,
		start:    time.Now(),
		prof:     &Profile{Rules: make([]RuleProfile, len(pipes))},
		profDone: make(chan struct{}),
	}
	if o.Partial {
		s.inc = &Incompleteness{RulesTotal: len(pipes)}
	}
	budget := rt.newBudget()
	pool := newColPool()
	s.wg.Add(1)
	go func() { // driver
		defer s.wg.Done()
		defer close(s.rows)
		defer close(s.profDone)
		if o.Parallel {
			var wg sync.WaitGroup
			for i, p := range pipes {
				wg.Add(1)
				go func(i int, p rulePipeline) {
					defer wg.Done()
					rt.runPipeline(sctx, p, cat, s, &s.prof.Rules[i], budget, pool, o.Partial)
				}(i, p)
			}
			wg.Wait()
		} else {
			for i, p := range pipes {
				if sctx.Err() != nil {
					break
				}
				rt.runPipeline(sctx, p, cat, s, &s.prof.Rules[i], budget, pool, o.Partial)
			}
		}
		// A context already dead before (or between) pipelines would
		// otherwise look like clean exhaustion to the consumer.
		s.fail(sctx.Err())
		s.mu.Lock()
		s.prof.Elapsed = time.Since(s.start)
		s.prof.TimeToFirst = s.ttf
		if s.inc != nil {
			s.inc.RulesSurvived = s.inc.RulesTotal - len(s.inc.Failed)
			s.prof.Degraded.Rules = len(s.inc.Failed)
		}
		if rt.Budget.active() {
			s.prof.Calls.BudgetSpent = int(budget.spent.Load())
		}
		s.prof.Batch = pool.batchProfile()
		s.prof.finalize()
		s.prof.snapshotReplicas(cat)
		s.mu.Unlock()
	}()
	return s, nil
}

// runPipeline executes one rule as a chain of stage goroutines and
// blocks until every stage has exited. Each stage owns one compiled
// plan step: it consumes columnar batches from its inbound channel,
// applies the step through the runtime (with a cross-batch dedup memo),
// and emits the surviving rows downstream in batches of at most
// rt.batchSize(). The final stage materializes head rows from the
// interned columns and emits them to the consumer.
//
// In partial-results mode the rule runs under its own child context: a
// degradable failure cancels only this rule's stages (the stream stays
// live for the remaining rules), the failure is recorded, and the head
// rows — buffered until the pipeline completes — are discarded.
func (rt *Runtime) runPipeline(ctx context.Context, p rulePipeline, cat *sources.Catalog, s *Stream, rp *RuleProfile, budget *budgetState, pool *colPool, partial bool) {
	ruleStart := time.Now()
	rp.Rule = p.rule.Clone()
	rp.Steps = make([]StepProfile, len(p.steps))
	prog := compileRule(p.rule, p.steps, pool)

	// Stages run under rctx; in partial mode it is rule-local, so a
	// dropped disjunct's teardown cannot touch the other rules.
	rctx := ctx
	rcancel := func() {}
	var failMu sync.Mutex
	var ruleErr error
	if partial {
		rctx, rcancel = context.WithCancel(ctx)
		defer rcancel()
	}
	fail := func(err error) {
		if err == nil {
			return
		}
		if partial {
			if ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				// Rule-local teardown already under way: the failure that
				// caused it is recorded; cancellation fallout is not news.
				return
			}
			if degradable(ctx, err) {
				failMu.Lock()
				if ruleErr == nil {
					ruleErr = err
				}
				failMu.Unlock()
				rcancel()
				return
			}
		}
		s.fail(err)
	}

	depth := rt.stageBuffer()
	chans := make([]chan *colBatch, len(p.steps)+1)
	for i := range chans {
		chans[i] = make(chan *colBatch, depth)
	}

	var wg sync.WaitGroup
	for i := range p.steps {
		wg.Add(1)
		go func(i int, in <-chan *colBatch, out chan<- *colBatch) {
			defer wg.Done()
			defer close(out)
			sp := &rp.Steps[i]
			sp.Step = prog.steps[i].step
			// The call memo and the binding-collapse set span the
			// stage's batches, exactly as one materialized step spans
			// its whole input.
			var memo map[string]*stepCall
			var seen *rowSet
			if rt.Dedup {
				memo = map[string]*stepCall{}
				seen = &rowSet{}
			}
			// emit hands one output batch downstream, charging the
			// resident gauge; ownership transfers to the next stage.
			emit := func(b *colBatch) bool {
				s.resident.add(int64(b.n))
				select {
				case out <- b:
					return true
				case <-rctx.Done():
					s.resident.add(int64(-b.n))
					pool.put(b)
					return false
				}
			}
			for batch := range in {
				n := batch.n
				sp.BindingsIn += n
				t0 := time.Now()
				emitted, stopped, err := rt.applyStepCol(rctx, prog, i, cat, batch, sp, memo, seen, budget, pool, rt.batchSize(), emit)
				sp.Elapsed += time.Since(t0)
				pool.put(batch)
				if err != nil {
					fail(err)
					s.resident.add(int64(-n))
					return
				}
				sp.BindingsOut += emitted
				s.resident.add(int64(-n))
				if stopped {
					return
				}
			}
		}(i, chans[i], chans[i+1])
	}

	// Head stage: columnar batches → answer rows → consumer. Head
	// strings materialize here, nowhere earlier. In partial mode the
	// rows are held back until the whole pipeline succeeded: a
	// disjunct's answers are only certain once the disjunct is complete.
	var held [][]Row // partial mode only; owned by the head goroutine
	wg.Add(1)
	go func(in <-chan *colBatch) {
		defer wg.Done()
		// Duplicate head rows that reach this stage (only without Dedup;
		// with it the last stage's collapse already made them distinct)
		// are still emitted, but each distinct row is materialized once
		// and shared by ID-space key; consumers treat rows as read-only.
		var heads rowSet
		var distinct []Row // by heads member index
		for batch := range in {
			n := batch.n
			if n > 0 && prog.headErr != nil {
				pool.put(batch)
				fail(prog.headErr)
				s.resident.add(int64(-n))
				return
			}
			rows := make([]Row, 0, n)
			for ri := 0; ri < n; ri++ {
				idx, added := heads.addRow(batch, ri, prog.headSlots)
				if added {
					distinct = append(distinct, prog.headRowCol(batch, ri, pool))
				}
				rows = append(rows, distinct[idx])
			}
			pool.put(batch)
			if partial {
				held = append(held, rows)
				s.resident.add(int64(-n))
				continue
			}
			rp.Answers += len(rows)
			ok := s.emit(rctx, rows)
			s.resident.add(int64(-n))
			if !ok {
				return
			}
		}
	}(chans[len(p.steps)])

	// Seed the pipeline with the single empty binding.
	seed := pool.getBatch(prog.numSlots)
	seed.n = 1
	s.resident.add(1)
	select {
	case chans[0] <- seed:
	case <-rctx.Done():
		fail(rctx.Err())
		s.resident.add(-1)
		pool.put(seed)
	}
	close(chans[0])

	wg.Wait()
	if partial {
		failMu.Lock()
		err := ruleErr
		failMu.Unlock()
		switch {
		case err != nil:
			s.recordFailure(p.idx, p.rule, err)
		case ctx.Err() == nil:
			for _, rows := range held {
				rp.Answers += len(rows)
				if !s.emit(ctx, rows) {
					break
				}
			}
		}
	}
	rp.Elapsed = time.Since(ruleStart)
	rp.PeakBindings = int(s.resident.max.Load())
	if err := ctx.Err(); err != nil {
		s.fail(err)
	}
}
