package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-3); got != want {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, want)
	}
}

// TestMapOrdering checks that results land in input order for every worker
// count, even when late items finish first.
func TestMapOrdering(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 3, 8, 64, 200} {
		got, err := Map(context.Background(), n, workers, func(_ context.Context, i int) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Duration(i%3) * time.Millisecond)
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 0, 4, func(context.Context, int) (int, error) {
		t.Fatal("fn must not run for n=0")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("Map(0) = %v, %v", got, err)
	}
}

// TestMapFirstErrorCancels verifies that an error stops new work and that
// the canonical (lowest-index, non-cancellation) error is reported.
func TestMapFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	_, err := Map(context.Background(), 1000, 4, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 3 {
			return 0, fmt.Errorf("item %d: %w", i, boom)
		}
		// Give the cancellation a moment to propagate.
		select {
		case <-ctx.Done():
		case <-time.After(200 * time.Microsecond):
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if s := started.Load(); s == 1000 {
		t.Error("cancellation did not stop the remaining items")
	}
}

// TestMapErrorCanonical: with two failing items, the lowest index wins no
// matter which goroutine hit its error first.
func TestMapErrorCanonical(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		_, err := Map(context.Background(), 8, 8, func(_ context.Context, i int) (int, error) {
			switch i {
			case 2:
				time.Sleep(time.Millisecond)
				return 0, errors.New("error at 2")
			case 5:
				return 0, errors.New("error at 5")
			}
			return i, nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		if got := err.Error(); got != "error at 2" {
			t.Fatalf("trial %d: canonical error = %q, want lowest index", trial, got)
		}
	}
}

func TestMapSequentialStopsAtFirstError(t *testing.T) {
	var calls int
	_, err := Map(context.Background(), 10, 1, func(_ context.Context, i int) (int, error) {
		calls++
		if i == 2 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil || calls != 3 {
		t.Fatalf("calls = %d, err = %v; want 3 calls and an error", calls, err)
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := Map(ctx, 16, workers, func(_ context.Context, i int) (int, error) {
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestMapDeterministicAggregation is the engine-level version of the
// experiments' byte-identical contract: a seeded computation aggregated in
// result order must be identical at workers 1 and 8.
func TestMapDeterministicAggregation(t *testing.T) {
	run := func(workers int) string {
		vals, err := Map(context.Background(), 32, workers, func(_ context.Context, i int) (uint64, error) {
			seed := uint64(i+1) * 0x9e3779b97f4a7c15
			seed ^= seed >> 29
			return seed, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(vals)
	}
	if a, b := run(1), run(8); a != b {
		t.Fatalf("aggregation differs:\n%s\n%s", a, b)
	}
}

func BenchmarkMapInline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Map(context.Background(), 16, 1, func(_ context.Context, i int) (int, error) {
			return i, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapWorkers4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Map(context.Background(), 16, 4, func(_ context.Context, i int) (int, error) {
			return i, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
