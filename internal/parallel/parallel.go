// Package parallel is the stdlib-only bounded worker-pool engine behind
// every Monte-Carlo trial loop in internal/experiments and the per-server
// estimation fan-out in internal/core. Its single contract is *determinism
// under parallelism*: Map returns results in input order regardless of the
// worker count, so any computation whose per-item work is a pure function
// of the item index (the experiments derive per-trial seeds independently,
// see DESIGN.md §12) produces byte-identical artifacts at workers=1 and
// workers=N.
//
// Design points:
//
//   - workers <= 0 resolves to runtime.GOMAXPROCS(0), so `go test -cpu 1,4`
//     and production GOMAXPROCS tuning drive the pool size directly;
//   - workers == 1 (or n == 1) runs inline on the calling goroutine — no
//     goroutines, channels or atomics — so the sequential path has zero
//     engine overhead (bounded by BenchmarkParallelMapOverhead);
//   - a failure at index i stops every index above i from starting, while
//     every index below i still runs, so the error reported is the one the
//     sequential loop would stop at — error output is reproducible too.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values <= 0 mean "one worker per
// available CPU" (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(ctx, i) for every i in [0, n) on at most workers goroutines
// and returns the n results in input order. workers is resolved through
// Workers and clamped to n. Once fn fails at index i, no index above i
// starts; indices below it still run, because one of them may fail too and
// the lowest failing index is the error Map reports. Which error that is
// therefore does not depend on goroutine scheduling. Cancelling ctx skips
// every item not yet started and reports the cancellation.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers <= 1 {
		// Inline fast path: behaves exactly like the pre-engine
		// sequential loops (stops at the first error).
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return results, nil
	}

	errs := make([]error, n)
	// failed is the lowest index that has failed so far (n: none). It only
	// falls, so an index below it when taken is never skipped.
	var next, failed atomic.Int64
	failed.Store(int64(n))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if i > failed.Load() {
					continue
				}
				v, err := fn(ctx, int(i))
				if err != nil {
					errs[i] = err
					for low := failed.Load(); i < low && !failed.CompareAndSwap(low, i); low = failed.Load() {
					}
					continue
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
