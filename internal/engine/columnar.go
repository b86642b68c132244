package engine

// Columnar batch evaluation: the hot loop of every execution path.
//
// The historical evaluator carries each binding as a map[string]string
// and re-unifies every returned tuple against every binding
// (tupleMatches), which allocates a map clone per surviving pair and
// compares strings throughout. Here a plan is compiled once per rule
// into a slot program — every variable gets a dense column slot, every
// atom position a static role — and bindings flow between steps as
// colBatch values: slot-indexed vectors of interned uint32 value IDs
// (see intern.go). One step is then a hash join: each distinct source
// call's tuples are filtered by the static constant and repeated-
// variable constraints once, and the survivors' join values interned
// and grouped by their bound-position key — built once per call — and
// each input row probes by its own bound-slot key, emitting one output
// row per matching tuple. A compile-time liveness pass keeps only the
// slots a later step or the head reads, and under Runtime.Dedup output
// rows equal on those slots collapse to the first (applyStepCol).
// Column buffers are recycled through a per-execution colPool.
//
// The columnar path is observationally identical to the map path: same
// source calls in the same dedup groups (keys are now binary ID tuples,
// which also fixes the latent '\x1f'-in-value collision of the string
// key), same answer rows in the same order, and the same lazily raised
// planning errors. Only the binding counts of the profile differ: they
// count distinct live bindings, not the map path's full fan-out.
// Strings materialize only at the edges: call inputs handed to
// internal/sources and head rows handed to Rel/Stream.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/logic"
	"repro/internal/sources"
)

// colBatch is one batch of bindings in columnar form: n rows over
// slot-indexed columns of interned value IDs. Only slots bound at this
// point of the plan have columns; the rest are nil.
type colBatch struct {
	n    int
	cols [][]uint32
}

// rowSet is an insertion-ordered set of rows of uint32 IDs — bindings
// projected onto a fixed list of slots — in one flat arena with an
// open-addressing index, so a member costs no allocation of its own.
// It backs the binding collapse of applyStepCol and the ID-space head
// dedup. reset empties it for reuse and keeps its buffers.
type rowSet struct {
	width int      // IDs per member, fixed by the first add after reset
	n     int      // members
	keys  []uint32 // members' IDs, width per member, in insertion order
	index []int32  // member+1 per occupied entry; 0 marks a free entry
	key   []uint32 // addRow scratch
}

func (s *rowSet) reset() {
	s.n = 0
	s.keys = s.keys[:0]
	clear(s.index)
}

// addRow adds row i of b projected onto slots; see add.
func (s *rowSet) addRow(b *colBatch, i int, slots []int) (int, bool) {
	s.key = s.key[:0]
	for _, sl := range slots {
		s.key = append(s.key, b.cols[sl][i])
	}
	return s.add(s.key)
}

// add returns key's member index, adding key if it is new; added
// reports whether it was. All keys between resets have one width.
func (s *rowSet) add(key []uint32) (idx int, added bool) {
	if s.n == 0 {
		s.width = len(key)
	}
	if 2*(s.n+1) > len(s.index) {
		s.grow()
	}
	mask := len(s.index) - 1
	for e := int(hashIDs(key)) & mask; ; e = (e + 1) & mask {
		m := int(s.index[e]) - 1
		if m < 0 {
			s.index[e] = int32(s.n + 1)
			s.keys = append(s.keys, key...)
			s.n++
			return s.n - 1, true
		}
		if slices.Equal(s.keys[m*s.width:(m+1)*s.width], key) {
			return m, false
		}
	}
}

// grow doubles the index (at least 16 entries) and reinserts every
// member.
func (s *rowSet) grow() {
	size := max(16, 2*len(s.index))
	s.index = make([]int32, size)
	mask := size - 1
	for m := 0; m < s.n; m++ {
		e := int(hashIDs(s.keys[m*s.width:(m+1)*s.width])) & mask
		for s.index[e] != 0 {
			e = (e + 1) & mask
		}
		s.index[e] = int32(m + 1)
	}
}

// hashIDs mixes a row of IDs into a hash for rowSet's index.
func hashIDs(key []uint32) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range key {
		h ^= uint64(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// colPool recycles column buffers and batch headers within one
// execution. Batches die at every pipeline stage (the output batch
// never aliases the input), so without reuse the hot loop would churn
// one column allocation per slot per batch. The pool is shared by all
// rules and stages of an execution and is safe for concurrent use; it
// also carries the execution's batch accounting (Profile.Batch).
type colPool struct {
	mu          sync.Mutex
	freeCols    [][]uint32
	freeBatches []*colBatch

	nBatches  atomic.Int64 // batches run through applyStepCol
	nInterned atomic.Int64 // tuple values newly interned this execution
	nReuses   atomic.Int64 // column buffers served from the free list
	nCapSpill atomic.Int64 // values spilled because the interner cap refused them

	// Spill table: values that get execution-local IDs at or above
	// spillBase, resolving here instead of through the process-wide
	// interner — plan constants the interner has never seen (constID),
	// and values the interner's cap refused (SetInternerCap). The table
	// dies with the execution, so a query's fresh constants and a tenant
	// streaming unbounded distinct values pay for them only while the
	// query runs.
	spillMu   sync.RWMutex
	spillIDs  map[string]uint32
	spillStrs []string
}

func newColPool() *colPool { return &colPool{} }

// spilledID returns s's spill ID if this execution already spilled it.
func (p *colPool) spilledID(s string) (uint32, bool) {
	p.spillMu.RLock()
	id, ok := p.spillIDs[s]
	p.spillMu.RUnlock()
	return id, ok
}

// spill assigns s an execution-local ID (or returns the one it already
// has) and reports whether the entry is new.
func (p *colPool) spill(s string) (uint32, bool) {
	p.spillMu.Lock()
	defer p.spillMu.Unlock()
	if id, ok := p.spillIDs[s]; ok {
		return id, false
	}
	if p.spillIDs == nil {
		p.spillIDs = map[string]uint32{}
	}
	id := spillBase + uint32(len(p.spillStrs))
	p.spillStrs = append(p.spillStrs, s)
	p.spillIDs[s] = id
	return id, true
}

// internID resolves a source value to an ID for this execution: the
// spill table first — a value this execution already spilled must keep
// its spill ID even if another execution interned it globally since —
// then the global interner, interning under the cap, then a fresh spill
// entry. fresh reports a new global intern (Profile.Batch accounting).
func (p *colPool) internID(s string) (id uint32, fresh bool) {
	if id, ok := p.spilledID(s); ok {
		return id, false
	}
	if id, ok := interned.lookup(s); ok {
		return id, false
	}
	if id, fresh, ok := interned.tryID(s); ok {
		return id, fresh
	}
	id, added := p.spill(s)
	if added {
		p.nCapSpill.Add(1)
	}
	return id, false
}

// constID resolves a plan constant: its global ID when some source
// already returned the value, else an execution-local spill ID. Plan
// constants never enter the process-wide interner — an ad-hoc query's
// fresh constant would otherwise stay pinned for the process lifetime.
// A source tuple carrying the same value later in this execution still
// joins: internID consults the spill table first.
func (p *colPool) constID(s string) uint32 {
	if id, ok := p.spilledID(s); ok {
		return id
	}
	if id, ok := interned.lookup(s); ok {
		return id
	}
	id, _ := p.spill(s)
	return id
}

// str resolves an ID assigned by internID or constID back to its value.
func (p *colPool) str(id uint32) string {
	if id < spillBase {
		return interned.str(id)
	}
	p.spillMu.RLock()
	s := p.spillStrs[id-spillBase]
	p.spillMu.RUnlock()
	return s
}

// getCol returns a column of length n, reusing a free buffer when one
// is large enough.
func (p *colPool) getCol(n int) []uint32 {
	p.mu.Lock()
	for i := len(p.freeCols) - 1; i >= 0; i-- {
		if cap(p.freeCols[i]) >= n {
			buf := p.freeCols[i]
			last := len(p.freeCols) - 1
			p.freeCols[i] = p.freeCols[last]
			p.freeCols = p.freeCols[:last]
			p.mu.Unlock()
			p.nReuses.Add(1)
			return buf[:n]
		}
	}
	p.mu.Unlock()
	return make([]uint32, n)
}

// getBatch returns an empty batch with a cols slice of numSlots nil
// columns.
func (p *colPool) getBatch(numSlots int) *colBatch {
	p.mu.Lock()
	var b *colBatch
	if n := len(p.freeBatches); n > 0 {
		b = p.freeBatches[n-1]
		p.freeBatches = p.freeBatches[:n-1]
	}
	p.mu.Unlock()
	if b == nil {
		b = &colBatch{}
	}
	b.n = 0
	if cap(b.cols) < numSlots {
		b.cols = make([][]uint32, numSlots)
	} else {
		b.cols = b.cols[:numSlots]
		for i := range b.cols {
			b.cols[i] = nil
		}
	}
	return b
}

// put releases a batch: its columns return to the free list and the
// header is recycled. The caller must not touch b afterwards.
func (p *colPool) put(b *colBatch) {
	if b == nil {
		return
	}
	p.mu.Lock()
	for i, c := range b.cols {
		if cap(c) > 0 {
			p.freeCols = append(p.freeCols, c[:0])
		}
		b.cols[i] = nil
	}
	b.n = 0
	p.freeBatches = append(p.freeBatches, b)
	p.mu.Unlock()
}

// batchProfile snapshots the pool's counters into a Profile section.
func (p *colPool) batchProfile() BatchProfile {
	return BatchProfile{
		BatchesProcessed: int(p.nBatches.Load()),
		InternedValues:   int(p.nInterned.Load()),
		ArenaReuses:      int(p.nReuses.Load()),
		SpilledValues:    int(p.nCapSpill.Load()),
	}
}

// argRole classifies one atom position of a compiled step.
type argRole uint8

const (
	// argConst: constant in the atom; a tuple survives iff its value at
	// this position equals val.
	argConst argRole = iota
	// argFirst: a variable's first occurrence, bound by this atom; the
	// tuple value flows into the variable's slot when the slot is live
	// (positive steps only).
	argFirst
	// argRepeat: a later occurrence of an argFirst variable within the
	// same atom; the tuple must agree with itself at firstPos.
	argRepeat
	// argBound: a variable bound by an earlier step; a probe position of
	// the hash join.
	argBound
	// argNull: a null term in a body atom; it never matches stored data
	// (the map path's tupleMatches returns nil unconditionally).
	argNull
)

// stepArg is the compiled role of one atom position.
type stepArg struct {
	role     argRole
	val      string // argConst
	slot     int    // argFirst: slot written; argBound: slot probed
	firstPos int    // argRepeat: position of the variable's first occurrence
}

// inputSrc says where one call-input value comes from: a bound slot's
// column (slot ≥ 0) or a compile-time constant.
type inputSrc struct {
	slot    int // -1 for constants
	constID uint32
}

// newCol is a live column a positive step adds: the variable's slot
// filled from entry at of the matching tuple's interned join row.
type newCol struct {
	slot, at int
}

// stepProgram is one compiled plan step.
type stepProgram struct {
	step   access.AdornedLiteral
	args   []stepArg
	inputs []inputSrc
	// joinPos are the atom positions whose tuple values the join interns:
	// the probe positions (role argBound, paired in order with
	// probeSlots), then the positions feeding newCols. No other
	// position's ID is ever read — constants and repeats are checked on
	// the strings — so dead columns never reach the interner.
	joinPos    []int
	probeSlots []int
	// copySlots are the live slots bound before this step (copied
	// through); newCols the live slots it binds. Together (outSlots)
	// they are exactly the slots some later step or the head reads.
	copySlots []int
	newCols   []newCol
	outSlots  []int
	// err is the step's lazy compile error (unbound or null call input),
	// raised — like the map path's per-binding callInputs error — only
	// when rows actually reach the step.
	err error
}

// headArg kinds.
const (
	headConst = iota
	headNull
	headSlot
)

// headArg is one compiled head position.
type headArg struct {
	kind int
	val  Value // headConst
	slot int   // headSlot
}

// ruleProgram is one rule's compiled columnar plan.
type ruleProgram struct {
	rule     logic.CQ
	numSlots int
	steps    []stepProgram
	head     []headArg
	// headSlots are the slots of the headSlot args, in head order: the
	// ID-space identity of a head row within this rule (const and null
	// positions are fixed per rule, so they carry no information).
	headSlots []int
	// headErr is the unsafe-plan error (head variable never bound),
	// raised only when bindings reach the head, as in the map path.
	headErr error
}

// compileRule translates an adorned plan into a slot program. It never
// fails: structural problems (unbound inputs, unsafe heads) become lazy
// errors raised exactly where the per-binding evaluator would raise
// them. Compilation is cheap (linear in the plan) and runs once per
// rule per execution. Call-input constants resolve through the
// execution's pool (constID) and never grow the process-wide interner.
//
// A backward liveness pass then trims every step to what the rest of
// the plan reads: a slot survives step i only if a call input or join
// probe of steps i+1…n, or the head, reads it. Dead columns are neither
// copied nor interned, and the collapse in applyStepCol keys on the
// live slots alone.
func compileRule(q logic.CQ, steps []access.AdornedLiteral, pool *colPool) *ruleProgram {
	prog := &ruleProgram{rule: q, steps: make([]stepProgram, len(steps))}
	slotOf := map[string]int{}
	var bound []bool // indexed by slot
	slot := func(name string) int {
		if s, ok := slotOf[name]; ok {
			return s
		}
		s := prog.numSlots
		prog.numSlots++
		slotOf[name] = s
		bound = append(bound, false)
		return s
	}
	for si, st := range steps {
		sp := &prog.steps[si]
		sp.step = st
		atom := st.Literal.Atom
		for j, t := range atom.Args {
			if !st.Pattern.Input(j) {
				continue
			}
			switch {
			case t.IsConst():
				sp.inputs = append(sp.inputs, inputSrc{slot: -1, constID: pool.constID(t.Name)})
			case t.IsVar():
				if s, ok := slotOf[t.Name]; ok && bound[s] {
					sp.inputs = append(sp.inputs, inputSrc{slot: s})
				} else if sp.err == nil {
					sp.err = fmt.Errorf("engine: input slot %d of %s needs unbound variable %s", j+1, st, t.Name)
				}
			default:
				if sp.err == nil {
					sp.err = fmt.Errorf("engine: null cannot be used as a call input in %s", st)
				}
			}
		}
		sp.args = make([]stepArg, len(atom.Args))
		firstAt := map[string]int{}
		for j, t := range atom.Args {
			a := &sp.args[j]
			switch {
			case t.IsConst():
				a.role = argConst
				a.val = t.Name
			case t.IsVar():
				if s, ok := slotOf[t.Name]; ok && bound[s] {
					a.role = argBound
					a.slot = s
					sp.joinPos = append(sp.joinPos, j)
					sp.probeSlots = append(sp.probeSlots, s)
					continue
				}
				if p, ok := firstAt[t.Name]; ok {
					a.role = argRepeat
					a.firstPos = p
					continue
				}
				a.role = argFirst
				a.slot = slot(t.Name)
				firstAt[t.Name] = j
			default:
				a.role = argNull
			}
		}
		for s := 0; s < len(bound); s++ {
			if bound[s] {
				sp.copySlots = append(sp.copySlots, s)
			}
		}
		// A positive step binds its fresh variables for downstream steps;
		// a negated step is a pure filter (the map path discards the
		// extended binding and keeps the original).
		if !st.Literal.Negated {
			for j := range sp.args {
				if sp.args[j].role == argFirst {
					sp.newCols = append(sp.newCols, newCol{slot: sp.args[j].slot, at: j})
					bound[sp.args[j].slot] = true
				}
			}
		}
	}
	prog.head = make([]headArg, len(q.HeadArgs))
	for i, t := range q.HeadArgs {
		h := &prog.head[i]
		switch {
		case t.IsNull():
			h.kind = headNull
		case t.IsConst():
			h.kind = headConst
			h.val = V(t.Name)
		default:
			if s, ok := slotOf[t.Name]; ok && bound[s] {
				h.kind = headSlot
				h.slot = s
				prog.headSlots = append(prog.headSlots, s)
			} else if prog.headErr == nil {
				prog.headErr = fmt.Errorf("engine: head variable %s is unbound; plan for %s is unsafe", t.Name, q.HeadPred)
			}
		}
	}
	live := make([]bool, prog.numSlots)
	for _, s := range prog.headSlots {
		live[s] = true
	}
	for si := len(prog.steps) - 1; si >= 0; si-- {
		sp := &prog.steps[si]
		copySlots := sp.copySlots[:0]
		for _, s := range sp.copySlots {
			if live[s] {
				copySlots = append(copySlots, s)
			}
		}
		sp.copySlots = copySlots
		newCols := sp.newCols[:0]
		for _, nc := range sp.newCols {
			if live[nc.slot] {
				// nc.at held the atom position; it becomes the entry of the
				// interned join row.
				sp.joinPos = append(sp.joinPos, nc.at)
				nc.at = len(sp.joinPos) - 1
				newCols = append(newCols, nc)
			}
		}
		sp.newCols = newCols
		sp.outSlots = append([]int(nil), copySlots...)
		for _, nc := range newCols {
			sp.outSlots = append(sp.outSlots, nc.slot)
		}
		for _, in := range sp.inputs {
			if in.slot >= 0 {
				live[in.slot] = true
			}
		}
		for _, s := range sp.probeSlots {
			live[s] = true
		}
	}
	return prog
}

// materializeInputs builds the string inputs of one distinct call (the
// only place input strings materialize; deduped rows never do).
func (sp *stepProgram) materializeInputs(in *colBatch, row int, pool *colPool) []string {
	if len(sp.inputs) == 0 {
		return nil
	}
	out := make([]string, len(sp.inputs))
	for k, s := range sp.inputs {
		if s.slot >= 0 {
			out[k] = pool.str(in.cols[s.slot][row])
		} else {
			out[k] = pool.str(s.constID)
		}
	}
	return out
}

// callJoin is the hash-join side of one distinct source call: the
// call's surviving tuples — pre-filtered by the step's static
// constraints — reduced to their interned join rows (the joinPos
// values) and grouped by their probe key. It is built once per call —
// in a streamed stage the memo carries it across batches — and probed
// once per input row.
type callJoin struct {
	vals   []uint32 // one join row of len(joinPos) IDs per surviving tuple
	width  int
	groups map[string][]int32 // probe key -> surviving tuple indices, in tuple order
}

// buildJoin filters the call's tuples and interns and groups the
// survivors by probe key. Constants and repeated variables are checked
// on the strings, so a tuple the filter drops, and every position
// outside joinPos, never touches the interner. Tuple order is preserved
// within each group, so probing emits matches in exactly the map path's
// order.
func (sp *stepProgram) buildJoin(rows []sources.Tuple, pool *colPool) *callJoin {
	width := len(sp.joinPos)
	j := &callJoin{width: width, groups: make(map[string][]int32, 1+len(rows)/4)}
	keyBuf := make([]byte, 0, 4*len(sp.probeSlots))
	n := int32(0)
	for _, t := range rows {
		ok := true
		for p := 0; p < len(sp.args) && ok; p++ {
			switch a := &sp.args[p]; a.role {
			case argConst:
				ok = t[p] == a.val
			case argRepeat:
				ok = t[p] == t[a.firstPos]
			case argNull:
				ok = false
			}
		}
		if !ok {
			continue
		}
		if j.vals == nil && width > 0 {
			j.vals = make([]uint32, 0, len(rows)*width)
		}
		for _, p := range sp.joinPos {
			id, fresh := pool.internID(t[p])
			if fresh {
				pool.nInterned.Add(1)
			}
			j.vals = append(j.vals, id)
		}
		keyBuf = keyBuf[:0]
		for _, v := range j.vals[int(n)*width : int(n)*width+len(sp.probeSlots)] {
			keyBuf = append(keyBuf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		if g, found := j.groups[string(keyBuf)]; found {
			j.groups[string(keyBuf)] = append(g, n)
		} else {
			j.groups[string(keyBuf)] = []int32{n}
		}
		n++
	}
	return j
}

// applyStepCol runs one compiled plan step over a columnar batch: group
// rows into distinct calls by their input IDs, issue the distinct calls
// through the runtime (worker pool, retries, hedging, budget — the
// same issue() as the map path), then hash-join each row against its
// call's tuples and emit output batches of at most limit rows (limit
// ≤ 0 means one batch). memo extends call deduplication across batches
// exactly like the map path's.
//
// A non-nil seen collapses duplicate bindings: an output row whose live
// slots (outSlots) repeat a row seen earlier — in this batch or, for a
// streamed stage, in an earlier one — is dropped. Its future is the
// kept row's: every later call input, probe and head value reads only
// live slots. So it would issue only calls the kept row's descendants
// already issued (deduplicated), and add only head rows they already
// added, later, which Rel.Add rejects. Keeping first occurrences in
// input order leaves the distinct-call order and the answer insertion
// order byte-identical. Callers pass seen only under rt.Dedup: without
// deduplication every binding pays its own calls, as in the map path.
//
// It returns the number of rows emitted and whether emit stopped the
// step early (pipeline cancellation; not an error).
func (rt *Runtime) applyStepCol(ctx context.Context, prog *ruleProgram, si int, cat *sources.Catalog, in *colBatch, sp *StepProfile, memo map[string]*stepCall, seen *rowSet, budget *budgetState, pool *colPool, limit int, emit func(*colBatch) bool) (int, bool, error) {
	sp0 := &prog.steps[si]
	step := sp0.step
	src := cat.Source(step.Literal.Atom.Pred)
	if src == nil {
		return 0, false, fmt.Errorf("engine: no source for relation %s", step.Literal.Atom.Pred)
	}
	if in.n > 0 && sp0.err != nil {
		return 0, false, sp0.err
	}
	pool.nBatches.Add(1)

	// Group rows into distinct calls by their binary input-ID key.
	calls := make([]*stepCall, 0, 8)
	callOf := make([]*stepCall, in.n)
	byKey := memo
	if rt.Dedup && byKey == nil {
		byKey = make(map[string]*stepCall, in.n)
	}
	keyBuf := make([]byte, 0, 4*len(sp0.inputs))
	for i := 0; i < in.n; i++ {
		if rt.Dedup {
			keyBuf = keyBuf[:0]
			for _, is := range sp0.inputs {
				v := is.constID
				if is.slot >= 0 {
					v = in.cols[is.slot][i]
				}
				keyBuf = append(keyBuf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			if c, ok := byKey[string(keyBuf)]; ok {
				callOf[i] = c
				sp.DedupedCalls++
				continue
			}
			c := &stepCall{inputs: sp0.materializeInputs(in, i, pool)}
			byKey[string(keyBuf)] = c
			calls = append(calls, c)
			callOf[i] = c
			continue
		}
		c := &stepCall{inputs: sp0.materializeInputs(in, i, pool)}
		calls = append(calls, c)
		callOf[i] = c
	}
	if err := rt.issue(ctx, src, step, calls, sp, budget); err != nil {
		return 0, false, err
	}
	for _, c := range calls {
		c.join = sp0.buildJoin(c.rows, pool)
	}

	// Probe every row, resolving its matching tuple group and the number
	// of candidate output rows before any output column is allocated.
	negated := step.Literal.Negated
	rowGroups := make([][]int32, in.n)
	remaining := 0
	for i := 0; i < in.n; i++ {
		keyBuf = keyBuf[:0]
		for _, s := range sp0.probeSlots {
			v := in.cols[s][i]
			keyBuf = append(keyBuf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		g := callOf[i].join.groups[string(keyBuf)]
		rowGroups[i] = g
		if negated {
			if len(g) == 0 {
				remaining++
			}
		} else {
			remaining += len(g)
		}
	}
	if remaining == 0 {
		return 0, false, nil
	}

	// Output batches are sized for the candidates still to come; the
	// collapse may leave them partly used.
	mk := func() *colBatch {
		n := remaining
		if limit > 0 && limit < n {
			n = limit
		}
		b := pool.getBatch(prog.numSlots)
		b.n = n
		for _, s := range sp0.outSlots {
			b.cols[s] = pool.getCol(n)
		}
		return b
	}
	ob := mk()
	emitted, k := 0, 0
	flush := func() bool {
		ob.n = k
		if !emit(ob) {
			return false
		}
		emitted += k
		k = 0
		ob = nil
		if remaining > 0 {
			ob = mk()
		}
		return true
	}
	// commit accounts for the candidate just written at row k of ob: it
	// becomes an output row unless seen already holds its live values.
	// It returns false when emit stopped the step.
	commit := func() bool {
		remaining--
		if seen != nil {
			if _, added := seen.addRow(ob, k, sp0.outSlots); !added {
				return true
			}
		}
		k++
		return !(limit > 0 && k == limit) || flush()
	}
	for i := 0; i < in.n; i++ {
		g := rowGroups[i]
		if negated {
			if len(g) != 0 {
				continue
			}
			for _, s := range sp0.copySlots {
				ob.cols[s][k] = in.cols[s][i]
			}
			if !commit() {
				return emitted, true, nil
			}
			continue
		}
		if len(g) == 0 {
			continue
		}
		join := callOf[i].join
		for _, ti := range g {
			vals := join.vals[int(ti)*join.width:]
			for _, s := range sp0.copySlots {
				ob.cols[s][k] = in.cols[s][i]
			}
			for _, nc := range sp0.newCols {
				ob.cols[nc.slot][k] = vals[nc.at]
			}
			if !commit() {
				return emitted, true, nil
			}
		}
	}
	if k > 0 {
		if !flush() {
			return emitted, true, nil
		}
	} else if ob != nil {
		pool.put(ob) // every remaining candidate collapsed
	}
	return emitted, false, nil
}

// headRowCol materializes the answer row for one batch row: the only
// place head strings leave the interned domain.
func (prog *ruleProgram) headRowCol(b *colBatch, i int, pool *colPool) Row {
	row := make(Row, len(prog.head))
	for k := range prog.head {
		switch h := &prog.head[k]; h.kind {
		case headNull:
			row[k] = NullValue
		case headConst:
			row[k] = h.val
		default:
			row[k] = V(pool.str(b.cols[h.slot][i]))
		}
	}
	return row
}

// runStepsCol is the columnar materializing evaluator: the default
// implementation behind runSteps (Runtime.MapEval selects the
// historical map-based loop instead, kept as the differential-testing
// reference).
func (rt *Runtime) runStepsCol(ctx context.Context, q logic.CQ, steps []access.AdornedLiteral, cat *sources.Catalog, out *Rel, prof *RuleProfile, budget *budgetState, pool *colPool) error {
	ruleStart := time.Now()
	prog := compileRule(q, steps, pool)
	// One set serves every step's collapse in turn, then the head.
	set := &rowSet{}
	var seen *rowSet
	if rt.Dedup {
		seen = set
	}
	cur := pool.getBatch(prog.numSlots)
	cur.n = 1 // the single empty binding
	for si := range prog.steps {
		var sp StepProfile
		sp.Step = prog.steps[si].step
		sp.BindingsIn = cur.n
		start := time.Now()
		var next *colBatch
		set.reset()
		outRows, _, err := rt.applyStepCol(ctx, prog, si, cat, cur, &sp, nil, seen, budget, pool, 0, func(b *colBatch) bool {
			next = b
			return true
		})
		sp.Elapsed = time.Since(start)
		pool.put(cur)
		if err != nil {
			if prof != nil {
				// Keep the failed step's accounting: degraded executions
				// report the traffic a dropped disjunct cost.
				prof.Steps = append(prof.Steps, sp)
				prof.Elapsed = time.Since(ruleStart)
			}
			return err
		}
		sp.BindingsOut = outRows
		if prof != nil {
			prof.Steps = append(prof.Steps, sp)
			// Materializing evaluation holds the step's input and output
			// batches live at once.
			if resident := sp.BindingsIn + sp.BindingsOut; resident > prof.PeakBindings {
				prof.PeakBindings = resident
			}
		}
		if outRows == 0 {
			if prof != nil {
				prof.Elapsed = time.Since(ruleStart)
			}
			return nil
		}
		cur = next
	}
	if cur.n > 0 && prog.headErr != nil {
		pool.put(cur)
		return prog.headErr
	}
	// Dedup head rows in ID space before materializing strings: a row
	// whose head slots repeat within this rule is one Add would reject
	// anyway, so only the first occurrence pays Row.Key and string
	// assembly. (Under Dedup the last step's collapse already made the
	// rows distinct; the check is then cheap and never fires.)
	set.reset()
	for i := 0; i < cur.n; i++ {
		if _, added := set.addRow(cur, i, prog.headSlots); !added {
			continue
		}
		if out.Add(prog.headRowCol(cur, i, pool)) && prof != nil {
			prof.Answers++
		}
	}
	pool.put(cur)
	if prof != nil {
		prof.Elapsed = time.Since(ruleStart)
	}
	return nil
}
