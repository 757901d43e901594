// Package pool is the evaluation harness's bounded worker pool. The §5.2
// grid (18 workloads × 5 configurations) and the §5.1 Juliet suite are
// embarrassingly parallel — every cell builds its own rt.Runtime — so the
// harness fans cells out over a fixed number of goroutines and writes each
// result into a pre-indexed slot, keeping report ordering (and therefore
// report bytes) identical to a serial run.
//
// Error semantics are deliberately run-everything: a failed cell does not
// abort the grid. All errors are aggregated with errors.Join in item-index
// order, so the error text is deterministic regardless of worker count.
package pool

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: values <= 0 select
// runtime.GOMAXPROCS(0) (the -parallel flag's default), anything else is
// returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(i) for every i in [0, n) across at most workers goroutines
// and returns the joined errors in index order. workers <= 1 runs serially
// on the calling goroutine (the -parallel 1 path: no goroutines at all),
// but with the same run-everything, join-all-errors semantics as the
// parallel path, so output and error text never depend on worker count.
func Map(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		return errors.Join(errs...)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
