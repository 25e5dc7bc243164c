package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
)

// TestFanOutReplayBitIdenticalToSequential is the pipeline determinism
// guarantee: simulating many cache configurations concurrently in one
// trace pass must produce exactly the statistics of replaying the trace
// once per configuration, for every protocol, on more than one
// benchmark.
func TestFanOutReplayBitIdenticalToSequential(t *testing.T) {
	cases := []struct {
		bench     string
		pes       int
		protocols []cache.Protocol
	}{
		// Sequential single-PE trace: every protocol, including
		// copyback (which is only coherent at 1 PE).
		{"deriv", 1, cache.Protocols()},
		// Parallel 4-PE trace: the four coherent protocols.
		{"qsort", 4, []cache.Protocol{
			cache.WriteThrough, cache.WriteInBroadcast,
			cache.WriteThroughBroadcast, cache.Hybrid,
		}},
	}
	for _, tc := range cases {
		b, _ := benchByName(t, tc.bench)
		buf, _, err := bench.TraceDirect(context.Background(), b, tc.pes, tc.pes == 1)
		if err != nil {
			t.Fatal(err)
		}
		var cfgs []cache.Config
		for _, proto := range tc.protocols {
			for _, size := range []int{128, 1024} {
				cfgs = append(cfgs, cache.Config{
					PEs: tc.pes, SizeWords: size, LineWords: 4,
					Protocol:      proto,
					WriteAllocate: cache.PaperWriteAllocate(proto, size),
				})
			}
		}
		concurrent, err := cache.SimulateAll(buf, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			sim := cache.New(cfg)
			buf.Replay(sim)
			if sequential := sim.Stats(); concurrent[i] != sequential {
				t.Errorf("%s @ %d PEs, %v/%dw: concurrent %+v != sequential %+v",
					tc.bench, tc.pes, cfg.Protocol, cfg.SizeWords,
					concurrent[i], sequential)
			}
		}
	}
}

func TestRunGridRunsAllCellsBounded(t *testing.T) {
	var inFlight, peak, done atomic.Int64
	err := NewRunner(nil, 3, nil).runGrid(context.Background(), 50, func(i int) error {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		done.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.Load() != 50 {
		t.Fatalf("ran %d cells, want 50", done.Load())
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds worker bound 3", p)
	}
}

func TestRunGridPropagatesError(t *testing.T) {
	want := errors.New("cell failed")
	var ran atomic.Int64
	err := NewRunner(nil, 0, nil).runGrid(context.Background(), 10, func(i int) error {
		ran.Add(1)
		if i == 4 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	// At least the cells up to the failing one ran; later cells may be
	// skipped once the error is recorded.
	if ran.Load() < 5 {
		t.Fatalf("ran %d cells, want >= 5", ran.Load())
	}
}

// TestGridParallelismInvariance re-runs a full driver at parallelism 1
// and N and requires identical output — the grid must never change the
// numbers, only the wall clock.
func TestGridParallelismInvariance(t *testing.T) {
	sizes := []int{128, 512}
	seq, err := NewRunner(nil, 1, nil).RunFigure4(context.Background(), []int{1, 2}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(nil, 8, nil).RunFigure4(context.Background(), []int{1, 2}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel grid changed results:\n--- par=1:\n%s\n--- par=8:\n%s", seq, par)
	}
	for i := range seq.Series {
		for j := range seq.Series[i].Ratio {
			if seq.Series[i].Ratio[j] != par.Series[i].Ratio[j] {
				t.Errorf("series %d ratio %d: %v != %v",
					i, j, seq.Series[i].Ratio[j], par.Series[i].Ratio[j])
			}
		}
	}
}

func TestSimulateAllRejectsBadConfig(t *testing.T) {
	b, _ := benchByName(t, "deriv")
	_, err := NewRunner(nil, 0, nil).simulateAll(context.Background(), b, 1, true, []cache.Config{
		{PEs: 0, SizeWords: 128, LineWords: 4},
	})
	if err == nil {
		t.Fatal("invalid config not rejected")
	}
}

func BenchmarkGridFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure4(context.Background(), []int{1, 4}, []int{64, 256, 1024}); err != nil {
			b.Fatal(err)
		}
	}
}
