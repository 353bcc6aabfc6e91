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
//   - the first error cancels the shared context; workers drain without
//     starting new items, and the error reported is the non-cancellation
//     error with the lowest item index — a canonical choice that keeps
//     error output reproducible too.
package parallel

import (
	"context"
	"errors"
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
// Workers and clamped to n. The context passed to fn is cancelled as soon
// as any invocation fails (or the parent ctx is cancelled); items not yet
// started are then skipped. On failure Map returns the lowest-index
// non-cancellation error (falling back to the lowest-index error of any
// kind), so the reported error does not depend on goroutine scheduling.
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

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue // record cancellation, keep draining indices
				}
				v, err := fn(ctx, i)
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// firstError picks the canonical error from a per-index error slice: the
// lowest-index error that is not a bare context cancellation, falling back
// to the lowest-index error of any kind.
func firstError(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}
