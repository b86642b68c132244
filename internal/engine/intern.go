package engine

// Process-wide value interning for columnar evaluation. Every value a
// source returns maps to a dense uint32 ID, so binding batches hold
// machine words instead of string headers and join keys compare in one
// instruction. The table is append-only for the process lifetime:
// source values recur across queries (that is what makes the semantic
// caches pay off), so a per-execution table would re-intern the same
// working set on every request. Plan constants are not interned: a
// constant some source already returned reuses its ID, and any other
// resolves through the execution-local spill table (colPool.constID),
// because an ad-hoc query's fresh constant would otherwise stay pinned
// here for the life of the process. Identity of *data* versions is not
// the interner's job — that is Catalog.Generation and Catalog.ID(); the
// interner only canonicalizes value bytes, and two catalogs sharing the
// string "paris" sharing an ID is correct, not a collision.

import (
	"math"
	"sync"
	"sync/atomic"
)

// Reverse-table chunking: IDs index fixed-size chunks, so growing the
// table never moves published strings and str() is two loads.
const (
	internChunkShift = 10
	internChunkSize  = 1 << internChunkShift
	internChunkMask  = internChunkSize - 1
)

// valueInterner maps strings to dense uint32 IDs and back. id() is
// lock-free for already-interned values (the hot path: a steady-state
// workload interns almost nothing); misses take a mutex to append.
// str() is always lock-free.
type valueInterner struct {
	ids sync.Map // string -> uint32

	mu     sync.Mutex // guards appends: n, bytes, and chunk writes
	n      uint32     // next ID to assign
	bytes  int64      // approximate resident bytes of interned values
	chunks atomic.Pointer[[][]string]

	// Admission cap (SetInternerCap): the interner is process-wide and
	// append-only, so without a bound an adversarial tenant streaming
	// unbounded distinct strings grows it forever. When the cap is
	// reached, tryID refuses and the columnar evaluator spills the value
	// to an execution-local table instead (colPool.internID).
	maxEntries atomic.Int64 // 0 = unlimited
	maxBytes   atomic.Int64 // 0 = unlimited
	capHits    atomic.Int64 // intern attempts refused by the cap
}

// internEntryOverhead approximates the per-entry cost beyond the value
// bytes themselves: the sync.Map entry, the reverse-table slot, and two
// string headers.
const internEntryOverhead = 64

func newValueInterner() *valueInterner {
	in := &valueInterner{}
	chunks := make([][]string, 0, 8)
	in.chunks.Store(&chunks)
	return in
}

// interned is the process-wide interner backing columnar evaluation.
var interned = newValueInterner()

// id returns the ID for s, assigning a fresh one on first sight, and
// reports whether the value was new. Any byte string round-trips,
// including "" and non-UTF-8 data: the interner stores values verbatim.
// id ignores the admission cap; cap-aware callers use tryID.
func (in *valueInterner) id(s string) (uint32, bool) {
	id, fresh, _ := in.intern(s, false)
	return id, fresh
}

// lookup returns the ID of an already-interned value without interning.
func (in *valueInterner) lookup(s string) (uint32, bool) {
	if v, ok := in.ids.Load(s); ok {
		return v.(uint32), true
	}
	return 0, false
}

// tryID is id under the admission cap: ok=false means the cap refused
// the value (and nothing was interned) — the caller must resolve it
// some other way.
func (in *valueInterner) tryID(s string) (id uint32, fresh, ok bool) {
	return in.intern(s, true)
}

// intern is the shared implementation of id and tryID.
func (in *valueInterner) intern(s string, capped bool) (uint32, bool, bool) {
	if v, ok := in.ids.Load(s); ok {
		return v.(uint32), false, true
	}
	in.mu.Lock()
	if v, ok := in.ids.Load(s); ok {
		in.mu.Unlock()
		return v.(uint32), false, true
	}
	if capped {
		maxN, maxB := in.maxEntries.Load(), in.maxBytes.Load()
		if (maxN > 0 && int64(in.n) >= maxN) ||
			(maxB > 0 && in.bytes+int64(len(s))+internEntryOverhead > maxB) {
			in.mu.Unlock()
			in.capHits.Add(1)
			return 0, false, false
		}
	}
	id := in.n
	if id == math.MaxUint32 {
		in.mu.Unlock()
		panic("engine: value interner overflow: 2^32-1 distinct values")
	}
	chunks := *in.chunks.Load()
	if ci := int(id >> internChunkShift); ci == len(chunks) {
		grown := make([][]string, ci+1)
		copy(grown, chunks)
		grown[ci] = make([]string, internChunkSize)
		in.chunks.Store(&grown)
		chunks = grown
	}
	chunks[id>>internChunkShift][id&internChunkMask] = s
	in.n = id + 1
	in.bytes += int64(len(s)) + internEntryOverhead
	// Publish last: a reader can only learn this ID through the map (or
	// through data derived after this Store), so the chunk write above
	// happens-before every str(id).
	in.ids.Store(s, id)
	in.mu.Unlock()
	return id, true, true
}

// str returns the string for an ID previously assigned by id. IDs are
// never recycled, so the result is valid for the process lifetime.
func (in *valueInterner) str(id uint32) string {
	return (*in.chunks.Load())[id>>internChunkShift][id&internChunkMask]
}

// size returns the number of interned values (for tests).
func (in *valueInterner) size() uint32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.n
}

// InternerOccupancy reports the process-wide value interner's entry
// count and approximate resident bytes. The table is append-only for
// the process lifetime, so both numbers are monotonic gauges — useful
// for watching whether a workload's value universe has stabilized
// (steady state interns almost nothing) or keeps growing.
func InternerOccupancy() (entries int, bytes int64) {
	interned.mu.Lock()
	defer interned.mu.Unlock()
	return int(interned.n), interned.bytes
}

// spillBase is the first execution-local spill ID: IDs at or above it
// resolve through the execution's colPool spill table, never the
// process-wide interner. SetInternerCap clamps the entry cap below it,
// so the two ID spaces cannot collide.
const spillBase uint32 = 1 << 31

// SetInternerCap bounds the process-wide value interner: at most
// maxEntries values and maxBytes approximate resident bytes (0 means
// unlimited for either). Values refused by the cap are not lost — the
// columnar evaluator resolves them through an execution-local spill
// table at some per-execution cost — so answers are unaffected; the cap
// only bounds what adversarial tenant input can pin in process memory
// forever. Already-interned values stay interned: the cap gates
// admission, it does not evict.
//
// Cap hits are surfaced in ExecProfile.Batch (InternerCapHits,
// SpilledValues) and the server's /v1/stats.
func SetInternerCap(maxEntries int, maxBytes int64) {
	if maxEntries < 0 {
		maxEntries = 0
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	// Clamp below the spill ID space; 2^31-1 entries is far beyond any
	// real memory budget anyway.
	if maxEntries != 0 && int64(maxEntries) >= int64(spillBase) {
		maxEntries = int(spillBase - 1)
	}
	interned.maxEntries.Store(int64(maxEntries))
	interned.maxBytes.Store(maxBytes)
}

// InternerCapStats reports how often the interner cap refused an intern
// attempt (a process-lifetime counter) and whether the cap is currently
// reached — i.e. whether new distinct values are being spilled.
func InternerCapStats() (capHits int64, capped bool) {
	hits := interned.capHits.Load()
	maxN, maxB := interned.maxEntries.Load(), interned.maxBytes.Load()
	interned.mu.Lock()
	n, bytes := int64(interned.n), interned.bytes
	interned.mu.Unlock()
	capped = (maxN > 0 && n >= maxN) || (maxB > 0 && bytes+internEntryOverhead >= maxB)
	return hits, capped
}
