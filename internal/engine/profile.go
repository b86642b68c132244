package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/access"
	"repro/internal/logic"
	"repro/internal/sources"
)

// StepProfile is the traffic accounting of one plan step (one adorned
// literal): how many source calls it issued, how many tuples came back,
// and how the binding set changed. It is the per-operator half of an
// EXPLAIN ANALYZE for limited-access plans.
type StepProfile struct {
	Step access.AdornedLiteral
	// Calls counts the call attempts issued to the source, including
	// retried attempts; with healthy sources it equals the catalog's
	// meter delta for the step.
	Calls          int
	TuplesReturned int
	// BindingsIn and BindingsOut count the bindings entering and leaving
	// the step. Under Runtime.Dedup the columnar evaluator carries only
	// live variables and collapses bindings that agree on all of them,
	// so it counts distinct live bindings; the map evaluator (MapEval)
	// and runs without Dedup count every binding of the fan-out.
	BindingsIn  int
	BindingsOut int
	// DedupedCalls counts bindings served by another binding's call:
	// their (pattern, inputs) key was already being fetched this step,
	// so no extra source call was issued. Only repeated inputs among the
	// bindings counted in BindingsIn are counted, so the collapse lowers
	// it while Calls stay the same.
	DedupedCalls int
	// Retries counts retry rounds beyond the first per call (transient
	// failures that the retry policy absorbed). A hedged race across
	// replicas is one round however many legs it launched.
	Retries int
	// HedgedCalls counts backup attempts the hedge timer launched
	// against replicated sources; each is also included in Calls.
	HedgedCalls int
	// HedgeWins counts calls whose winning rows came from a hedged
	// backup attempt rather than the primary.
	HedgeWins int
	// BatchGroups counts the binding groups this step serviced through a
	// batch-capable source as batched round trips (each group is one
	// wire call per attempt, counted once in Calls).
	BatchGroups int
	// BatchedCalls counts the distinct logical calls covered by those
	// groups — calls that did NOT each pay a wire round trip.
	BatchedCalls int
	// MaxInFlight is the peak number of concurrent calls the step had
	// outstanding against the source.
	MaxInFlight int
	// Elapsed is the wall-clock time spent in this step: issuing its
	// source calls and joining the results. In a streamed pipeline it is
	// the stage's busy time summed over batches (stages overlap, so step
	// times may sum to more than the rule's Elapsed).
	Elapsed time.Duration
}

// String renders one profile line.
func (sp StepProfile) String() string {
	s := fmt.Sprintf("%-36s calls=%-5d dedup=%-5d tuples=%-6d bindings %d→%d",
		sp.Step.String(), sp.Calls, sp.DedupedCalls, sp.TuplesReturned, sp.BindingsIn, sp.BindingsOut)
	if sp.Retries > 0 {
		s += fmt.Sprintf(" retries=%d", sp.Retries)
	}
	if sp.HedgedCalls > 0 {
		s += fmt.Sprintf(" hedged=%d(won %d)", sp.HedgedCalls, sp.HedgeWins)
	}
	if sp.BatchGroups > 0 {
		s += fmt.Sprintf(" batched=%d/%d", sp.BatchedCalls, sp.BatchGroups)
	}
	if sp.MaxInFlight > 1 {
		s += fmt.Sprintf(" inflight≤%d", sp.MaxInFlight)
	}
	if sp.Elapsed > 0 {
		s += fmt.Sprintf(" t=%s", sp.Elapsed.Round(time.Microsecond))
	}
	return s
}

// RuleProfile is the execution profile of one rule.
type RuleProfile struct {
	Rule    logic.CQ
	Steps   []StepProfile
	Answers int // new answer tuples this rule contributed
	// Elapsed is the rule's wall-clock execution time, first step start
	// to last answer.
	Elapsed time.Duration
	// PeakBindings is the high-water mark of bindings resident for this
	// rule: input+output set of the widest step when materializing, the
	// observed live-batch gauge when streaming.
	PeakBindings int
}

// CallsProfile groups an execution's aggregated source-call traffic.
// The per-step counters in Rules are the ground truth; these totals are
// derived from them when the execution finishes (finalize), except
// BudgetSpent, which the budget meter fills directly.
type CallsProfile struct {
	// Total is the number of call attempts issued, retries and hedged
	// legs included (the sum of StepProfile.Calls).
	Total int
	// Deduped counts bindings served by another binding's call.
	Deduped int
	// Retries counts retry rounds beyond the first per call.
	Retries int
	// Hedged counts timer-launched backup attempts; each is also in
	// Total.
	Hedged int
	// HedgeWins counts calls whose winning rows came from a backup leg.
	HedgeWins int
	// BatchGroups counts the binding groups serviced as batched round
	// trips through batch-capable sources (adapters); each group is one
	// wire call per attempt.
	BatchGroups int
	// BatchedCalls counts the logical calls covered by those groups.
	BatchedCalls int
	// MaxInFlight is the peak per-step call concurrency seen anywhere in
	// the plan.
	MaxInFlight int
	// BudgetSpent is the number of call attempts charged against the
	// runtime's per-query budget (0 when no budget is active).
	BudgetSpent int
}

// CacheProfile groups the semantic query cache's contribution to an
// execution.
type CacheProfile struct {
	// PlanHits counts plan-cache hits (0 or 1 per Exec; an int so
	// profiles can be summed across requests).
	PlanHits int
	// AnswerHits counts full answer-cache hits: the whole result was
	// served from cached rows with no live evaluation.
	AnswerHits int
	// PartialReuseRules counts the disjuncts whose rows were reused from
	// the answer cache while the remaining disjuncts ran live.
	PartialReuseRules int
	// Evictions counts query-cache entries (plans or answers) evicted
	// while serving this execution.
	Evictions int
	// PersistLoads counts answer entries warm-loaded from the cache's
	// persistence log. Like Replicas, these persistence counters are
	// cumulative across the cache's lifetime, not per-execution.
	PersistLoads int
	// PersistDrops counts persisted records dropped as unverifiable
	// (torn, bit-flipped, failed validation) or stale — dropped records
	// are never served.
	PersistDrops int
	// PersistBytes approximates the row bytes warm-loaded from disk.
	PersistBytes int64
}

// DegradedProfile groups the partial-results accounting.
type DegradedProfile struct {
	// Rules counts the disjuncts dropped in partial-results mode (0 in
	// strict mode or on a complete run).
	Rules int
}

// BatchProfile groups the columnar evaluator's batch accounting.
type BatchProfile struct {
	// BatchesProcessed counts the binding batches run through step
	// application (materialized evaluation processes one batch per
	// step; streamed pipelines many smaller ones).
	BatchesProcessed int
	// InternedValues counts source-tuple values first interned during
	// this execution (steady-state workloads re-see their working set,
	// so this trends to zero).
	InternedValues int
	// ArenaReuses counts column buffers served from the execution's
	// recycling pool instead of fresh allocations.
	ArenaReuses int
	// SpilledValues counts values this execution could not intern
	// because the process-wide interner hit its configured cap
	// (SetInternerCap) and instead resolved through the execution-local
	// spill table. Nonzero spills mean the cap is protecting the process
	// from unbounded distinct input, at some per-execution cost.
	SpilledValues int
	// InternerEntries and InternerBytes are the process-wide value
	// interner's occupancy (entry count and approximate resident bytes),
	// snapshotted when the execution finished. The interner is
	// append-only, so these are monotonic gauges, not per-execution
	// deltas.
	InternerEntries int
	InternerBytes   int64
	// InternerCapHits is the process-wide count of intern attempts
	// refused by the cap (a monotonic gauge, like the occupancy);
	// InternerCapped reports whether the cap is currently reached.
	InternerCapHits int64
	InternerCapped  bool
}

// Profile is the execution profile of a whole plan. Counter groups:
// Calls (source traffic), Cache (semantic query cache), Degraded
// (partial results), Batch (columnar evaluator).
type Profile struct {
	Rules []RuleProfile
	// Elapsed is the whole plan's wall-clock time.
	Elapsed time.Duration
	// TimeToFirst is the delay from execution start to the first head
	// tuple reaching the caller. Only streamed runs fill it; a
	// materializing run delivers nothing before Elapsed.
	TimeToFirst time.Duration

	// Calls is the aggregated source-call traffic.
	Calls CallsProfile
	// Cache is the semantic query cache's contribution.
	Cache CacheProfile
	// Degraded is the partial-results accounting.
	Degraded DegradedProfile
	// Batch is the columnar evaluator's batch accounting.
	Batch BatchProfile

	// Replicas is the per-replica health and traffic breakdown of every
	// replica-set source in the catalog, snapshotted when the execution
	// finished (profiled runs only; counters are cumulative across the
	// catalog's lifetime, not per-execution).
	Replicas []ReplicaSetProfile
}

// finalize derives the aggregated Calls counters from the per-step
// profiles (BudgetSpent is set by the budget meter and preserved).
// Every execution entry point calls it once the Rules slice is
// complete.
func (p *Profile) finalize() {
	c := &p.Calls
	c.Total, c.Deduped, c.Retries, c.Hedged, c.HedgeWins, c.MaxInFlight =
		p.TotalCalls(), p.TotalDeduped(), p.TotalRetries(), p.HedgedCalls(), p.HedgeWins(), p.MaxInFlight()
	for _, r := range p.Rules {
		for _, s := range r.Steps {
			c.BatchGroups += s.BatchGroups
			c.BatchedCalls += s.BatchedCalls
		}
	}
	p.Batch.InternerEntries, p.Batch.InternerBytes = InternerOccupancy()
	p.Batch.InternerCapHits, p.Batch.InternerCapped = InternerCapStats()
}

// BudgetSpent returns Calls.BudgetSpent.
//
// Deprecated: read Calls.BudgetSpent.
func (p Profile) BudgetSpent() int { return p.Calls.BudgetSpent }

// DegradedRules returns Degraded.Rules.
//
// Deprecated: read Degraded.Rules.
func (p Profile) DegradedRules() int { return p.Degraded.Rules }

// PlanCacheHits returns Cache.PlanHits.
//
// Deprecated: read Cache.PlanHits.
func (p Profile) PlanCacheHits() int { return p.Cache.PlanHits }

// AnswerCacheHits returns Cache.AnswerHits.
//
// Deprecated: read Cache.AnswerHits.
func (p Profile) AnswerCacheHits() int { return p.Cache.AnswerHits }

// PartialReuseRules returns Cache.PartialReuseRules.
//
// Deprecated: read Cache.PartialReuseRules.
func (p Profile) PartialReuseRules() int { return p.Cache.PartialReuseRules }

// CacheEvictions returns Cache.Evictions.
//
// Deprecated: read Cache.Evictions.
func (p Profile) CacheEvictions() int { return p.Cache.Evictions }

// ReplicaSetProfile is the per-replica breakdown of one replicated
// source.
type ReplicaSetProfile struct {
	// Source is the relation name the replica set fronts.
	Source string
	// Replicas holds each replica's health and traffic, in declaration
	// order.
	Replicas []sources.ReplicaStats
}

// String renders one replica-set line.
func (rp ReplicaSetProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", rp.Source)
	for _, r := range rp.Replicas {
		fmt.Fprintf(&b, " %s[%s calls=%d fail=%d ewma=%s]",
			r.Replica, r.State, r.Calls, r.Failures, r.EWMALatency.Round(time.Microsecond))
	}
	return b.String()
}

// snapshotReplicas fills p.Replicas with the current per-replica
// breakdown of every replica-set source in the catalog.
func (p *Profile) snapshotReplicas(cat *sources.Catalog) {
	for _, name := range cat.Names() {
		if rs, ok := cat.Source(name).(*sources.ReplicaSet); ok {
			p.Replicas = append(p.Replicas, ReplicaSetProfile{Source: name, Replicas: rs.ReplicaStats()})
		}
	}
}

// TotalCalls sums source calls across all rules.
func (p Profile) TotalCalls() int {
	n := 0
	for _, r := range p.Rules {
		for _, s := range r.Steps {
			n += s.Calls
		}
	}
	return n
}

// TotalTuples sums tuples returned across all rules.
func (p Profile) TotalTuples() int {
	n := 0
	for _, r := range p.Rules {
		for _, s := range r.Steps {
			n += s.TuplesReturned
		}
	}
	return n
}

// TotalDeduped sums the calls saved by per-step deduplication.
func (p Profile) TotalDeduped() int {
	n := 0
	for _, r := range p.Rules {
		for _, s := range r.Steps {
			n += s.DedupedCalls
		}
	}
	return n
}

// TotalRetries sums the retried attempts across all rules.
func (p Profile) TotalRetries() int {
	n := 0
	for _, r := range p.Rules {
		for _, s := range r.Steps {
			n += s.Retries
		}
	}
	return n
}

// HedgedCalls sums the timer-launched backup attempts across all rules.
func (p Profile) HedgedCalls() int {
	n := 0
	for _, r := range p.Rules {
		for _, s := range r.Steps {
			n += s.HedgedCalls
		}
	}
	return n
}

// HedgeWins sums the calls won by a hedged backup attempt across all
// rules.
func (p Profile) HedgeWins() int {
	n := 0
	for _, r := range p.Rules {
		for _, s := range r.Steps {
			n += s.HedgeWins
		}
	}
	return n
}

// MaxInFlight is the peak per-step call concurrency seen anywhere in the
// plan.
func (p Profile) MaxInFlight() int {
	m := 0
	for _, r := range p.Rules {
		for _, s := range r.Steps {
			if s.MaxInFlight > m {
				m = s.MaxInFlight
			}
		}
	}
	return m
}

// PeakBindings is the largest per-rule binding residency seen in the
// plan (see RuleProfile.PeakBindings).
func (p Profile) PeakBindings() int {
	m := 0
	for _, r := range p.Rules {
		if r.PeakBindings > m {
			m = r.PeakBindings
		}
	}
	return m
}

// String renders the profile, one rule block per rule.
func (p Profile) String() string {
	var b strings.Builder
	for i, r := range p.Rules {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "rule %d: %s   (%d answers", i+1, r.Rule, r.Answers)
		if r.Elapsed > 0 {
			fmt.Fprintf(&b, ", %s", r.Elapsed.Round(time.Microsecond))
		}
		b.WriteString(")\n")
		for _, s := range r.Steps {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	}
	if p.TimeToFirst > 0 {
		fmt.Fprintf(&b, "first tuple after %s\n", p.TimeToFirst.Round(time.Microsecond))
	}
	if p.Degraded.Rules > 0 {
		fmt.Fprintf(&b, "degraded: %d disjunct(s) dropped\n", p.Degraded.Rules)
	}
	if p.Calls.BudgetSpent > 0 {
		fmt.Fprintf(&b, "budget spent: %d call(s)\n", p.Calls.BudgetSpent)
	}
	if c := p.Cache; c.PlanHits > 0 || c.AnswerHits > 0 || c.PartialReuseRules > 0 || c.Evictions > 0 {
		fmt.Fprintf(&b, "cache: plan hits=%d answer hits=%d reused rules=%d evictions=%d\n",
			c.PlanHits, c.AnswerHits, c.PartialReuseRules, c.Evictions)
	}
	if c := p.Cache; c.PersistLoads > 0 || c.PersistDrops > 0 {
		fmt.Fprintf(&b, "persist: %d entries warm-loaded (%d bytes), %d dropped\n",
			c.PersistLoads, c.PersistBytes, c.PersistDrops)
	}
	if p.Batch.BatchesProcessed > 0 {
		fmt.Fprintf(&b, "batches: %d processed, %d values interned, %d buffers reused\n",
			p.Batch.BatchesProcessed, p.Batch.InternedValues, p.Batch.ArenaReuses)
	}
	if p.Batch.SpilledValues > 0 {
		fmt.Fprintf(&b, "interner capped: %d value(s) spilled to execution-local table\n", p.Batch.SpilledValues)
	}
	if p.Calls.BatchGroups > 0 {
		fmt.Fprintf(&b, "pushdown: %d call(s) batched into %d round-trip group(s)\n",
			p.Calls.BatchedCalls, p.Calls.BatchGroups)
	}
	if h := p.HedgedCalls(); h > 0 {
		fmt.Fprintf(&b, "hedged: %d backup call(s), %d won\n", h, p.HedgeWins())
	}
	for _, rp := range p.Replicas {
		fmt.Fprintf(&b, "replicas %s\n", rp)
	}
	if p.Elapsed > 0 {
		fmt.Fprintf(&b, "total %s\n", p.Elapsed.Round(time.Microsecond))
	}
	return strings.TrimRight(b.String(), "\n")
}

// AnswerProfiled is Answer with per-step execution accounting: it
// evaluates the executable plan and returns both the answers and the
// profile of every rule's steps.
func AnswerProfiled(u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Rel, Profile, error) {
	return defaultRuntime.AnswerProfiled(context.Background(), u, ps, cat)
}

// AnswerProfiled is the package-level AnswerProfiled on this runtime.
func (rt *Runtime) AnswerProfiled(ctx context.Context, u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Rel, Profile, error) {
	rel, prof, _, err := rt.Eval(ctx, u, ps, cat, EvalOpts{Profile: true})
	if err != nil {
		return nil, Profile{}, err
	}
	return rel, prof, nil
}
