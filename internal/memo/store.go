package memo

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Entry kinds: every stored value carries the kind of result it is, so
// per-kind accounting stays separable (the /v1/run cache's hit rate must
// not be diluted by grid cells sharing the store) and the disk snapshot
// knows which codec rehydrates each record. Kinds are part of the
// snapshot format — never renumber, only append.
const (
	// KindCell is one evaluation-grid perf cell's observables
	// (*exp.ModeResult).
	KindCell byte = 1
	// KindChaos is one fault-injection cell's outcome (chaos.Outcome).
	KindChaos byte = 2
	// KindRun is one /v1/run HTTP result (status + response bytes).
	KindRun byte = 3
	// KindFootprint is one Figure-12 memory cell's footprint (uint64),
	// keyed by FootprintDigest. Memory cells run untimed, so they never
	// share an entry with a perf cell.
	KindFootprint byte = 4
)

// Entry is one store slot. An entry is born either done (Put) or pending
// (StartOrJoin): a pending entry coalesces concurrent identical
// submissions — the creator is the leader and computes; everyone joining
// blocks on Ready and reads the published value.
type Entry struct {
	digest  Digest
	kind    byte
	ready   chan struct{} // closed by Finish
	done    bool          // guarded by Store.mu; true once finished
	waiters uint64        // guarded by Store.mu; pending joins so far

	// val, enc, and keep are written by Finish (or Put) before ready is
	// closed / the entry is published, so readers that observed done (or
	// returned from Ready) may read them without the lock.
	val  any
	enc  []byte
	keep bool
}

// Ready is closed once the entry's leader has published. Only meaningful
// for entries returned by StartOrJoin with leader=false.
func (e *Entry) Ready() <-chan struct{} { return e.ready }

// Value returns the published value. Valid after Ready is closed (or for
// entries returned done).
func (e *Entry) Value() any { return e.val }

// Kept reports the leader's verdict: true for a deterministic result
// that stayed in the store, false for a published-but-dropped outcome
// (followers are served it, but it is not a replayable hit). Valid after
// Ready is closed.
func (e *Entry) Kept() bool { return e.keep }

// Kind returns the entry's result kind.
func (e *Entry) Kind() byte { return e.kind }

// entryOverhead approximates the fixed in-memory cost of one entry
// (digest, list element, map slot, headers) for the bytes gauge.
const entryOverhead = 160

// Stats is a Store counter snapshot.
type Stats struct {
	Hits, Misses, Evictions uint64
	Entries, Bytes          uint64
	// Loaded and Skipped account LoadSnapshot: entries rehydrated into
	// the store, and well-formed entries dropped because their kind had
	// no registered codec or failed to decode.
	Loaded, Skipped uint64
}

// KindStats is the per-kind slice of the counters.
type KindStats struct {
	Hits, Misses, Evictions, Entries uint64
}

// Store is the content-addressed result store: a concurrency-safe,
// entry-bounded LRU keyed by Digest. Two access disciplines share it:
//
//   - Get / Put: the cell path. Get serves only completed entries (a
//     pending entry is a miss — cell runners never block on each other);
//     Put records a computed result, first writer wins.
//   - StartOrJoin / Finish: the request-coalescing path (the /v1/run
//     cache rebuilt). The first caller of a key leads and computes;
//     concurrent identical callers join and are served the published
//     value. Finish is idempotent, so a deferred abandonment Finish is a
//     safe net under a leader that dies without publishing.
//
// Eviction drops least-recently-used completed entries; pending entries
// are never evicted (their leader still has to publish), so the store
// can transiently exceed max by the number of in-flight distinct keys.
type Store struct {
	mu     sync.Mutex
	max    int
	order  *list.List // front = most recently used
	items  map[Digest]*list.Element
	bytes  int64
	byKind [256]int64 // entry counts per kind, guarded by mu

	hits, misses, evictions [256]atomic.Uint64 // per kind
	loaded, skipped         atomic.Uint64
}

// DefaultEntries is the bound NewStore applies to max <= 0: room for
// several full campaigns (the default grid is ~200 cells, the chaos
// campaign 216) plus a working set of /v1/run entries.
const DefaultEntries = 4096

// NewStore builds an empty store bounded to max entries (max <= 0 =
// DefaultEntries).
func NewStore(max int) *Store {
	if max <= 0 {
		max = DefaultEntries
	}
	return &Store{max: max, order: list.New(), items: make(map[Digest]*list.Element)}
}

// Get returns the completed value stored under d. A pending entry (a
// leader is computing it right now) is a miss: the cell path never
// blocks one runner on another. The hit path performs no heap
// allocations — the alloc-budget tests pin that.
func (s *Store) Get(d Digest) (any, bool) {
	s.mu.Lock()
	el, ok := s.items[d]
	if ok {
		e := el.Value.(*Entry)
		if e.done {
			s.order.MoveToFront(el)
			s.mu.Unlock()
			s.hits[e.kind].Add(1)
			return e.val, true
		}
		kind := e.kind
		s.mu.Unlock()
		s.misses[kind].Add(1)
		return nil, false
	}
	s.mu.Unlock()
	// The kind of an absent digest is unknown; callers that care about
	// per-kind miss accounting use GetKind.
	s.misses[0].Add(1)
	return nil, false
}

// GetKind is Get with the caller naming the kind it expects, so misses
// on absent digests are accounted to that kind instead of kind 0.
func (s *Store) GetKind(d Digest, kind byte) (any, bool) {
	s.mu.Lock()
	if el, ok := s.items[d]; ok {
		e := el.Value.(*Entry)
		if e.done {
			s.order.MoveToFront(el)
			s.mu.Unlock()
			s.hits[e.kind].Add(1)
			return e.val, true
		}
	}
	s.mu.Unlock()
	s.misses[kind].Add(1)
	return nil, false
}

// Peek reports whether d is stored and completed, with no counter or
// recency effect — for header probes that must not distort the hit rate.
func (s *Store) Peek(d Digest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[d]
	return ok && el.Value.(*Entry).done
}

// Put records a completed result under d. enc is the entry's canonical
// serialized payload: it sizes the bytes gauge and is what SaveSnapshot
// writes (nil = memory-only, never snapshotted). If d is already present
// — completed by another runner, or pending under a coalescing leader —
// Put is a no-op beyond refreshing recency: results are deterministic in
// their digest, so the first publication is as good as any.
func (s *Store) Put(d Digest, kind byte, val any, enc []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[d]; ok {
		if el.Value.(*Entry).done {
			s.order.MoveToFront(el)
		}
		return
	}
	e := &Entry{digest: d, kind: kind, ready: closedReady, done: true, keep: true, val: val, enc: enc}
	s.items[d] = s.order.PushFront(e)
	s.bytes += int64(len(enc)) + entryOverhead
	s.byKind[kind]++
	s.evictLocked()
}

// closedReady is the shared already-closed channel of entries born done.
var closedReady = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// StartOrJoin returns the entry for d and whether the caller is its
// leader (responsible for computing and calling Finish). Joining a
// completed entry counts as a hit immediately; joining a pending one is
// counted only at publication, and only if the leader's outcome was kept
// — followers coalesced onto a failed leader are served its value but
// are neither hits nor misses, so error coalescing cannot inflate the
// hit rate. Creating an entry counts as a miss.
func (s *Store) StartOrJoin(d Digest, kind byte) (e *Entry, leader bool) {
	s.mu.Lock()
	if el, ok := s.items[d]; ok {
		e = el.Value.(*Entry)
		s.order.MoveToFront(el)
		if e.done {
			s.mu.Unlock()
			s.hits[e.kind].Add(1)
		} else {
			e.waiters++
			s.mu.Unlock()
		}
		return e, false
	}
	e = &Entry{digest: d, kind: kind, ready: make(chan struct{})}
	s.items[d] = s.order.PushFront(e)
	s.byKind[kind]++
	s.evictLocked()
	s.mu.Unlock()
	s.misses[kind].Add(1)
	return e, true
}

// Finish publishes the leader's value on e, waking all followers.
// keep=false additionally drops the entry from the store (used for
// non-deterministic outcomes that must not be replayed). Finish is
// idempotent: calls after the first are no-ops, so a handler can install
// a deferred abandonment Finish as a safety net — a leader that exits
// without publishing (e.g. a panic recovered by net/http) still wakes
// its followers and frees the key instead of poisoning it until restart.
func (s *Store) Finish(e *Entry, val any, enc []byte, keep bool) {
	s.mu.Lock()
	if e.done {
		s.mu.Unlock()
		return
	}
	e.val, e.enc = val, enc
	e.keep = keep
	e.done = true
	waiters := e.waiters
	if el, ok := s.items[e.digest]; ok && el.Value.(*Entry) == e {
		if keep {
			s.bytes += int64(len(enc)) + entryOverhead
		} else {
			s.order.Remove(el)
			delete(s.items, e.digest)
			s.byKind[e.kind]--
		}
	}
	s.mu.Unlock()
	// Followers that coalesced onto this pending entry become hits only
	// now that a replayable result exists.
	if keep {
		s.hits[e.kind].Add(waiters)
	}
	close(e.ready)
}

// evictLocked drops least-recently-used completed entries until the
// store is within bounds.
func (s *Store) evictLocked() {
	for s.order.Len() > s.max {
		var victim *list.Element
		for el := s.order.Back(); el != nil; el = el.Prev() {
			if el.Value.(*Entry).done {
				victim = el
				break
			}
		}
		if victim == nil {
			return
		}
		e := victim.Value.(*Entry)
		s.order.Remove(victim)
		delete(s.items, e.digest)
		s.bytes -= int64(len(e.enc)) + entryOverhead
		s.byKind[e.kind]--
		s.evictions[e.kind].Add(1)
	}
}

// Stats sums the counters over every kind.
func (s *Store) Stats() Stats {
	var st Stats
	for k := 0; k < 256; k++ {
		st.Hits += s.hits[k].Load()
		st.Misses += s.misses[k].Load()
		st.Evictions += s.evictions[k].Load()
	}
	s.mu.Lock()
	st.Entries = uint64(s.order.Len())
	if s.bytes > 0 {
		st.Bytes = uint64(s.bytes)
	}
	s.mu.Unlock()
	st.Loaded = s.loaded.Load()
	st.Skipped = s.skipped.Load()
	return st
}

// KindStats returns one kind's slice of the counters.
func (s *Store) KindStats(kind byte) KindStats {
	s.mu.Lock()
	entries := s.byKind[kind]
	s.mu.Unlock()
	ks := KindStats{
		Hits:      s.hits[kind].Load(),
		Misses:    s.misses[kind].Load(),
		Evictions: s.evictions[kind].Load(),
	}
	if entries > 0 {
		ks.Entries = uint64(entries)
	}
	return ks
}
