package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/tracestore"
)

func TestRunGridReturnsContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	err := NewRunner(nil, 0, nil).runGrid(ctx, 10, func(i int) error {
		calls.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runGrid with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("cancelled-before-start grid still ran %d cells", calls.Load())
	}
}

func TestRunGridStopsAtCellBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	err := NewRunner(nil, 2, nil).runGrid(ctx, 1000, func(i int) error {
		if calls.Add(1) == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cells already in flight complete; everything else is skipped.
	if n := calls.Load(); n > 10 {
		t.Fatalf("grid ran %d cells after cancellation — should stop at the next cell boundary", n)
	}
}

func TestDriverCancellationDoesNotPoisonMemo(t *testing.T) {
	// Use a sized variant so this test owns its memo cells.
	name := "qsort-150"
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunLineSizeSweep(ctx, name, 2, 256, []int{2, 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep: err = %v, want context.Canceled", err)
	}
	// The cancelled cell must not be memoized as failed: the same
	// driver with a live context succeeds.
	l, err := RunLineSizeSweep(context.Background(), name, 2, 256, []int{2, 4})
	if err != nil {
		t.Fatalf("sweep after cancelled attempt: %v", err)
	}
	if len(l.Ratio) != 2 {
		t.Fatalf("got %d ratios, want 2", len(l.Ratio))
	}
}

func TestTraceAfterCancelledAttempt(t *testing.T) {
	r := NewRunner(nil, 0, nil)
	b, _ := bench.ByName("deriv-12")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Trace(ctx, b, 2, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("Trace with cancelled ctx: err = %v, want context.Canceled", err)
	}
	buf, err := r.Trace(context.Background(), b, 2, false)
	if err != nil {
		t.Fatalf("Trace after cancelled attempt: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("retried trace is empty")
	}
}

func TestGenerateTracesCancellation(t *testing.T) {
	store, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	targets := []TraceTarget{{Benchmark: bench.Qsort(), PEs: 2}}
	if err := r.GenerateTraces(ctx, targets); !errors.Is(err, context.Canceled) {
		t.Fatalf("GenerateTraces with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if err := r.GenerateTraces(context.Background(), targets); err != nil {
		t.Fatalf("GenerateTraces retry: %v", err)
	}
}
