package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		n := 53
		counts := make([]atomic.Int32, n)
		if err := Map(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	ch := make(chan struct{})
	go func() { close(ch) }()
	<-ch
	if err := Map(workers, 64, func(i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent items, cap is %d", p, workers)
	}
}

func TestMapJoinsErrorsInIndexOrder(t *testing.T) {
	want := "item 3\nitem 11\nitem 40"
	for _, workers := range []int{1, 4} {
		err := Map(workers, 48, func(i int) error {
			if i == 3 || i == 11 || i == 40 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: error = %q, want %q", workers, err, want)
		}
	}
}

func TestMapDoesNotAbortOnError(t *testing.T) {
	var ran atomic.Int32
	err := Map(4, 32, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("first item failed")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	if ran.Load() != 32 {
		t.Errorf("only %d/32 items ran after a failure", ran.Load())
	}
}

func TestMapZeroItems(t *testing.T) {
	if err := Map(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersDefault(t *testing.T) {
	if w := Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := Workers(-3); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", w)
	}
	if w := Workers(6); w != 6 {
		t.Errorf("Workers(6) = %d", w)
	}
}
