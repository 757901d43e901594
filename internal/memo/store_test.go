package memo

import (
	"fmt"
	"sync"
	"testing"
)

func dg(s string) Digest { return SourceDigest(s) }

func TestPutGetAndLRUEviction(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 3; i++ {
		s.Put(dg(fmt.Sprintf("k%d", i)), KindCell, i, nil)
	}
	// Touch k0 so k1 is the least recently used.
	if v, ok := s.GetKind(dg("k0"), KindCell); !ok || v.(int) != 0 {
		t.Fatalf("k0: got %v %v", v, ok)
	}
	s.Put(dg("k3"), KindCell, 3, nil)
	if _, ok := s.GetKind(dg("k1"), KindCell); ok {
		t.Error("k1 should have been evicted as LRU")
	}
	for _, want := range []int{0, 2, 3} {
		if v, ok := s.GetKind(dg(fmt.Sprintf("k%d", want)), KindCell); !ok || v.(int) != want {
			t.Errorf("k%d: got %v %v", want, v, ok)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 3 {
		t.Errorf("entries = %d, want 3", st.Entries)
	}
}

func TestBounded(t *testing.T) {
	s := NewStore(8)
	for i := 0; i < 100; i++ {
		s.Put(dg(fmt.Sprintf("k%d", i)), KindCell, i, []byte("payload"))
	}
	if st := s.Stats(); st.Entries != 8 {
		t.Errorf("entries = %d, want 8", st.Entries)
	}
}

func TestHitMissAccounting(t *testing.T) {
	s := NewStore(16)
	s.Put(dg("a"), KindCell, 1, nil)
	s.GetKind(dg("a"), KindCell)
	s.GetKind(dg("a"), KindCell)
	s.GetKind(dg("missing"), KindCell)
	ks := s.KindStats(KindCell)
	if ks.Hits != 2 || ks.Misses != 1 {
		t.Errorf("cell stats = %+v, want 2 hits / 1 miss", ks)
	}
	// Peek must not move any counter.
	s.Peek(dg("a"))
	s.Peek(dg("missing"))
	if ks2 := s.KindStats(KindCell); ks2 != ks {
		t.Errorf("Peek changed counters: %+v -> %+v", ks, ks2)
	}
	if !s.Peek(dg("a")) || s.Peek(dg("missing")) {
		t.Error("Peek truth values wrong")
	}
}

func TestKindSeparation(t *testing.T) {
	s := NewStore(16)
	s.Put(dg("cell"), KindCell, 1, nil)
	s.Put(dg("run"), KindRun, 2, nil)
	s.GetKind(dg("cell"), KindCell)
	s.GetKind(dg("run"), KindRun)
	s.GetKind(dg("run"), KindRun)
	if ks := s.KindStats(KindCell); ks.Hits != 1 || ks.Entries != 1 {
		t.Errorf("cell stats = %+v", ks)
	}
	if ks := s.KindStats(KindRun); ks.Hits != 2 || ks.Entries != 1 {
		t.Errorf("run stats = %+v", ks)
	}
}

func TestPendingNotEvicted(t *testing.T) {
	s := NewStore(2)
	ePend, leader := s.StartOrJoin(dg("pending"), KindRun)
	if !leader {
		t.Fatal("expected leadership of fresh key")
	}
	// Flood past the bound: the pending entry must survive.
	for i := 0; i < 10; i++ {
		s.Put(dg(fmt.Sprintf("k%d", i)), KindCell, i, nil)
	}
	if e2, leader2 := s.StartOrJoin(dg("pending"), KindRun); leader2 || e2 != ePend {
		t.Fatal("pending entry was evicted under pressure")
	}
	s.Finish(ePend, "done", nil, true)
	if v, ok := s.GetKind(dg("pending"), KindRun); !ok || v.(string) != "done" {
		t.Fatalf("finished entry: got %v %v", v, ok)
	}
}

func TestGetSkipsPending(t *testing.T) {
	s := NewStore(16)
	e, _ := s.StartOrJoin(dg("p"), KindCell)
	if _, ok := s.GetKind(dg("p"), KindCell); ok {
		t.Error("GetKind must treat a pending entry as a miss, not block")
	}
	s.Finish(e, 1, nil, true)
	if _, ok := s.GetKind(dg("p"), KindCell); !ok {
		t.Error("finished entry should hit")
	}
}

func TestCoalescing(t *testing.T) {
	s := NewStore(16)
	const followers = 8
	leaderEntry, leader := s.StartOrJoin(dg("job"), KindRun)
	if !leader {
		t.Fatal("first caller must lead")
	}
	var wg sync.WaitGroup
	results := make([]string, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, lead := s.StartOrJoin(dg("job"), KindRun)
			if lead {
				t.Error("follower elected leader")
				return
			}
			<-e.Ready()
			results[i] = e.Value().(string)
		}(i)
	}
	s.Finish(leaderEntry, "answer", []byte("answer"), true)
	wg.Wait()
	for i, r := range results {
		if r != "answer" {
			t.Errorf("follower %d got %q", i, r)
		}
	}
	ks := s.KindStats(KindRun)
	if ks.Hits != followers || ks.Misses != 1 {
		t.Errorf("run stats = %+v, want %d hits / 1 miss", ks, followers)
	}
}

func TestErrorCoalescingNotCounted(t *testing.T) {
	s := NewStore(16)
	e, _ := s.StartOrJoin(dg("fail"), KindRun)
	done := make(chan string)
	go func() {
		f, lead := s.StartOrJoin(dg("fail"), KindRun)
		if lead {
			t.Error("follower elected leader")
		}
		<-f.Ready()
		done <- f.Value().(string)
	}()
	// Wait until the follower has actually joined so its waiter is
	// registered before the leader publishes.
	for {
		s.mu.Lock()
		w := e.waiters
		s.mu.Unlock()
		if w == 1 {
			break
		}
	}
	s.Finish(e, "error body", nil, false)
	if got := <-done; got != "error body" {
		t.Errorf("follower served %q", got)
	}
	ks := s.KindStats(KindRun)
	if ks.Hits != 0 {
		t.Errorf("dropped outcome counted %d hits, want 0", ks.Hits)
	}
	// The key must be free for a fresh leader.
	if _, lead := s.StartOrJoin(dg("fail"), KindRun); !lead {
		t.Error("dropped entry still occupies its key")
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d after drop + rejoin, want 1 (the new pending)", st.Entries)
	}
}

func TestFinishIdempotent(t *testing.T) {
	s := NewStore(16)
	e, _ := s.StartOrJoin(dg("once"), KindRun)
	s.Finish(e, "first", []byte("first"), true)
	// The abandonment safety-net Finish must be a no-op.
	s.Finish(e, "second", nil, false)
	if v, ok := s.GetKind(dg("once"), KindRun); !ok || v.(string) != "first" {
		t.Fatalf("got %v %v, want first", v, ok)
	}
}

func TestAbandonedLeaderFreesKey(t *testing.T) {
	s := NewStore(16)
	e, _ := s.StartOrJoin(dg("crash"), KindRun)
	// Simulates the deferred abandonment Finish in a handler whose
	// leader died before publishing.
	s.Finish(e, nil, nil, false)
	select {
	case <-e.Ready():
	default:
		t.Fatal("abandonment Finish must close Ready")
	}
	if _, lead := s.StartOrJoin(dg("crash"), KindRun); !lead {
		t.Error("abandoned key must accept a new leader")
	}
}

func TestPutFirstWriterWins(t *testing.T) {
	s := NewStore(16)
	s.Put(dg("k"), KindCell, "first", nil)
	s.Put(dg("k"), KindCell, "second", nil)
	if v, _ := s.GetKind(dg("k"), KindCell); v.(string) != "first" {
		t.Errorf("got %v, want first", v)
	}
	// Put onto a pending key must not clobber the leader's entry.
	e, _ := s.StartOrJoin(dg("p"), KindRun)
	s.Put(dg("p"), KindRun, "interloper", nil)
	s.Finish(e, "leader", nil, true)
	if v, _ := s.GetKind(dg("p"), KindRun); v.(string) != "leader" {
		t.Errorf("got %v, want leader", v)
	}
}

func TestBytesGauge(t *testing.T) {
	s := NewStore(4)
	s.Put(dg("a"), KindCell, 1, make([]byte, 100))
	before := s.Stats().Bytes
	if before < 100 {
		t.Fatalf("bytes = %d, want >= 100", before)
	}
	for i := 0; i < 10; i++ {
		s.Put(dg(fmt.Sprintf("fill%d", i)), KindCell, i, make([]byte, 100))
	}
	st := s.Stats()
	if st.Entries != 4 {
		t.Fatalf("entries = %d", st.Entries)
	}
	if want := uint64(4 * (100 + entryOverhead)); st.Bytes != want {
		t.Errorf("bytes = %d, want %d after evictions", st.Bytes, want)
	}
}

// TestConcurrentMixed hammers every API from many goroutines; run under
// -race it checks the locking discipline, and afterwards the counters
// must reconcile.
func TestConcurrentMixed(t *testing.T) {
	s := NewStore(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := dg(fmt.Sprintf("k%d", i%97))
				switch i % 4 {
				case 0:
					s.Put(key, KindCell, i, nil)
				case 1:
					s.GetKind(key, KindCell)
				case 2:
					s.Peek(key)
				case 3:
					e, lead := s.StartOrJoin(dg(fmt.Sprintf("j%d-%d", g, i)), KindRun)
					if lead {
						s.Finish(e, i, nil, i%5 != 0)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries > 64 {
		t.Errorf("entries = %d, exceeded bound", st.Entries)
	}
	if st.Hits+st.Misses == 0 {
		t.Error("no traffic recorded")
	}
}

// TestAllocBudgetStoreHit pins the hit path at zero heap allocations.
func TestAllocBudgetStoreHit(t *testing.T) {
	s := NewStore(16)
	key := dg("hot")
	s.Put(key, KindCell, &struct{ X int }{X: 1}, nil)
	if n := testing.AllocsPerRun(500, func() {
		if _, ok := s.GetKind(key, KindCell); !ok {
			t.Fatal("lost the hot entry")
		}
	}); n != 0 {
		t.Errorf("store hit allocates %v allocs/op, want 0", n)
	}
}
