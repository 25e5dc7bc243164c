package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// This file is the experiment grid runner. Every driver that sweeps a
// parameter grid (Figure 4, Table 3, MLIPS, the bus study, the cache
// ablations) decomposes into the same three layers:
//
//  1. memoized cells — each distinct (benchmark, PEs, sequential)
//     engine run is executed once, no matter how many grid cells need
//     it. Without a trace store the trace is memoized in RAM
//     (cachedTrace); with one attached (SetStore / bench.SetTraceStore)
//     the run streams into the persistent store and later cells —
//     including cells in later processes — replay from disk, decoding
//     chunk by chunk so the trace never materializes in memory;
//  2. simulateAll — all cache configurations that consume one trace are
//     simulated concurrently in a single pass over it (trace.FanOut);
//  3. runGrid — independent grid cells (different traces) execute on a
//     bounded worker pool.
//
// The engine itself is a deterministic single-goroutine simulation and
// every cache.Sim is driven by exactly one consumer goroutine, so the
// results are bit-identical to the sequential formulation — whether the
// reference stream comes from the engine, a RAM buffer, or a stored
// compact trace.

// parallelism is the worker-pool width for independent grid cells.
var parallelism atomic.Int64

// SetParallelism bounds the number of grid cells (engine runs and
// trace replays) in flight at once. n <= 0 restores the default,
// runtime.GOMAXPROCS(0).
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the current grid worker-pool width.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// progressFn gives the stored callback a fixed concrete type so
// atomic.Value accepts nil installs.
type progressFn func(msg string)

var onProgress atomic.Value // progressFn

// SetProgress installs a callback receiving a short line for every
// completed grid cell (e.g. "fig4: deriv @ 8 PEs: 24 configs
// simulated"); nil disables reporting. The callback may be invoked
// from multiple worker goroutines concurrently, and may be swapped
// while a grid run is in flight.
func SetProgress(f func(msg string)) {
	onProgress.Store(progressFn(f))
}

// progress reports one completed cell.
func progress(format string, args ...any) {
	if f, _ := onProgress.Load().(progressFn); f != nil {
		f(fmt.Sprintf(format, args...))
	}
}

// runGrid executes fn(0..n-1) on the bounded worker pool and returns
// the first error. After an error, cells not yet started are skipped;
// cells already in flight complete (engine runs inside them observe
// ctx themselves and abort mid-run). Cancelling ctx stops the pool at
// the next cell boundary and returns ctx.Err(). Cells must write only
// to their own result slots.
func runGrid(ctx context.Context, n int, fn func(i int) error) error {
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		firstErr atomic.Pointer[error]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for firstErr.Load() == nil {
				if err := ctx.Err(); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// storeHealAttempts bounds how many times a grid path retries a
// store-backed cell that keeps failing (corrupt reads quarantine and
// regenerate; transient backend errors just retry) before degrading to
// a direct in-memory run.
const storeHealAttempts = 3

// storeHealable reports whether a store-path failure is worth
// retrying/degrading around: quarantined corruption (the retry
// regenerates the cell) or a backend-side storage failure (the
// degraded direct path bypasses it). Everything else — a failing
// benchmark, cancellation — propagates.
func storeHealable(err error) bool {
	return tracestore.IsCorrupt(err) || storage.AsBackendError(err)
}

// traceKey identifies one memoized engine run. direct marks buffers
// generated bypassing the store (the degraded path) — kept distinct so
// a recovered store never serves a slot filled during an outage and
// vice versa.
type traceKey struct {
	bench      string
	pes        int
	sequential bool
	direct     bool
}

// traceEntry is a once-filled memo slot.
type traceEntry struct {
	once sync.Once
	buf  *trace.Buffer
	err  error
}

// traces memoizes reference traces across drivers: `-exp all` shares
// e.g. the 8-PE paper-benchmark traces between Figure 4, MLIPS and the
// bus study. Traces are a few MB each; ResetTraceCache frees them.
var traces sync.Map // traceKey -> *traceEntry

// cachedTrace returns the memoized trace for (b, pes, sequential),
// running the engine on first use. Concurrent callers for the same key
// block until the single engine run completes (the generating caller's
// ctx governs that run). A cancelled generation is evicted from the
// memo rather than cached, so a later sweep with a live context
// regenerates the cell instead of replaying the stale context error.
// direct bypasses any attached store (bench.TraceDirect) — the
// degraded path when storage keeps failing.
func cachedTrace(ctx context.Context, b bench.Benchmark, pes int, sequential, direct bool) (*trace.Buffer, error) {
	key := traceKey{b.Name, pes, sequential, direct}
	v, _ := traces.LoadOrStore(key, &traceEntry{})
	e := v.(*traceEntry)
	e.once.Do(func() {
		if direct {
			e.buf, _, e.err = bench.TraceDirect(ctx, b, pes, sequential)
		} else {
			e.buf, _, e.err = bench.Trace(ctx, b, pes, sequential)
		}
		if e.err == nil {
			progress("traced %s @ %d PEs (%d refs)", b.Name, pes, e.buf.Len())
		}
	})
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		traces.CompareAndDelete(key, v)
	}
	return e.buf, e.err
}

// ResetTraceCache drops all memoized traces.
func ResetTraceCache() {
	traces.Range(func(k, _ any) bool {
		traces.Delete(k)
		return true
	})
}

// SetStore attaches (nil: detaches) the persistent trace store the
// grid consults before running the emulator; it forwards to
// bench.SetTraceStore so bench.Trace shares the same store.
func SetStore(s *tracestore.Store) { bench.SetTraceStore(s) }

// activeStore returns the attached persistent store (nil if none).
func activeStore() *tracestore.Store { return bench.TraceStore() }

// EngineRuns returns the number of emulator executions so far (see
// bench.EngineRuns) — with a warm store a full experiment sweep
// performs zero.
func EngineRuns() int64 { return bench.EngineRuns() }

// ResetEngineRuns zeroes the emulator-execution counter.
func ResetEngineRuns() { bench.ResetEngineRuns() }

// replayCell streams the cell's trace into the sinks in one pass.
// With a store attached the pass is a chunked streaming decode from
// disk (the trace is never materialized); otherwise it replays the
// RAM-memoized buffer. Either way every sink sees the exact emission
// order, so results are bit-identical across sources.
func replayCell(ctx context.Context, b bench.Benchmark, pes int, sequential bool, sinks ...trace.Sink) error {
	if s := activeStore(); s != nil {
		k, err := bench.EnsureStored(ctx, b, pes, sequential)
		if err != nil {
			return err
		}
		if len(sinks) == 1 {
			_, err := s.Replay(k, sinks[0])
			return err
		}
		f := trace.NewFanOut(trace.FanOutConfig{}, sinks...)
		_, err = s.Replay(k, f)
		f.Close()
		return err
	}
	buf, err := cachedTrace(ctx, b, pes, sequential, false)
	if err != nil {
		return err
	}
	buf.ReplayAll(sinks...)
	return nil
}

// runStats returns the engine statistics and Table 1 reference counter
// for one cell. With a store attached it is served from the cell's run
// sidecar (generating the cell on first need); otherwise it runs the
// emulator. Store failures heal: corrupt cells are quarantined by the
// read and regenerated on retry, transient backend errors retry, and a
// store that keeps failing is bypassed with a direct engine run
// (marking the context degraded) — the statistics are a pure function
// of the cell, so the answer is identical either way.
func runStats(ctx context.Context, b bench.Benchmark, pes int, sequential bool) (core.Stats, *trace.Counter, error) {
	if s := activeStore(); s != nil {
		var lastErr error
	heal:
		for attempt := 0; attempt < storeHealAttempts; attempt++ {
			if err := ctx.Err(); err != nil {
				return core.Stats{}, nil, err
			}
			k, err := bench.EnsureStored(ctx, b, pes, sequential)
			if err != nil {
				if storeHealable(err) {
					lastErr = err
					continue heal
				}
				return core.Stats{}, nil, err
			}
			var rec bench.RunRecord
			ok, err := s.LoadSidecar(k, &rec)
			if err != nil {
				if storeHealable(err) {
					lastErr = err
					continue heal
				}
				return core.Stats{}, nil, err
			}
			if ok {
				return rec.Stats, &rec.Refs, nil
			}
			// Trace present but sidecar absent (foreign store, or just
			// quarantined as corrupt): run directly and repair the
			// sidecar so the next query is served from the store again
			// (best effort: the stats themselves are good).
			res, err := bench.Run(ctx, b, bench.RunConfig{PEs: pes, Sequential: sequential})
			if err != nil {
				return core.Stats{}, nil, err
			}
			if err := s.PutSidecar(k, bench.RunRecord{Success: res.Success, Stats: res.Stats, Refs: *res.Refs}); err != nil {
				progress("sidecar repair for %v failed: %v", k, err)
			}
			return res.Stats, res.Refs, nil
		}
		if err := ctx.Err(); err != nil {
			return core.Stats{}, nil, err
		}
		storage.MarkDegraded(ctx, "trace-store")
		progress("stats for %s @ %d PEs degrading to direct run: %v", b.Name, pes, lastErr)
	}
	res, err := bench.Run(ctx, b, bench.RunConfig{PEs: pes, Sequential: sequential})
	if err != nil {
		return core.Stats{}, nil, err
	}
	return res.Stats, res.Refs, nil
}

// TraceTarget names one trace-generation cell for GenerateTraces.
type TraceTarget struct {
	// Benchmark is the workload to trace.
	Benchmark bench.Benchmark
	// PEs is the processing-element count.
	PEs int
	// Sequential selects the CGE-free WAM baseline compilation.
	Sequential bool
}

// GenerateTraces makes sure the attached store holds every target
// cell, generating missing ones concurrently on the grid's bounded
// worker pool (SetParallelism) — each generation streaming straight
// into the store's compact codec. Duplicate targets and targets
// already present cost nothing. Cancelling ctx aborts in-flight engine
// runs (partial writes are cleaned up; completed cells stay). It
// requires an attached store.
func GenerateTraces(ctx context.Context, targets []TraceTarget) error {
	if activeStore() == nil {
		return fmt.Errorf("experiments: GenerateTraces needs an attached trace store (SetStore)")
	}
	return runGrid(ctx, len(targets), func(i int) error {
		t := targets[i]
		k, err := bench.EnsureStored(ctx, t.Benchmark, t.PEs, t.Sequential)
		if err != nil {
			return fmt.Errorf("generating %v: %w", k, err)
		}
		progress("stored %v", k)
		return nil
	})
}

// simulateAll replays one memoized trace through all configurations in
// a single fan-out pass and returns per-configuration statistics. With
// a store attached the pass streams from disk.
//
// Store failures heal here, not inside replayCell, because a mid-stream
// failure leaves the simulators partially fed: each retry calls
// SimulateAllStream again so every attempt gets fresh simulator
// state. A corrupt stored trace quarantines on the failing read and the
// retry regenerates it; if the store keeps failing, the cell degrades
// to a direct in-memory run (marking the context degraded) — identical
// results, just without persistence.
func simulateAll(ctx context.Context, b bench.Benchmark, pes int, sequential bool, cfgs []cache.Config) ([]cache.Stats, error) {
	if activeStore() == nil {
		buf, err := cachedTrace(ctx, b, pes, sequential, false)
		if err != nil {
			return nil, err
		}
		return cache.SimulateAll(buf, cfgs)
	}
	var lastErr error
	for attempt := 0; attempt < storeHealAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st, err := cache.SimulateAllStream(cfgs, func(sinks []trace.Sink) error {
			return replayCell(ctx, b, pes, sequential, sinks...)
		})
		if err == nil {
			return st, nil
		}
		if !storeHealable(err) {
			return nil, err
		}
		lastErr = err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	storage.MarkDegraded(ctx, "trace-store")
	progress("simulating %s @ %d PEs degrading to direct run: %v", b.Name, pes, lastErr)
	buf, err := cachedTrace(ctx, b, pes, sequential, true)
	if err != nil {
		return nil, err
	}
	return cache.SimulateAll(buf, cfgs)
}

// protocolRatios computes each benchmark's write-in broadcast traffic
// ratio at the given PE count and cache size — the quantity both the
// MLIPS calculation and the bus study average — as one grid cell per
// benchmark over memoized traces.
func protocolRatios(ctx context.Context, benches []bench.Benchmark, pes, cacheWords int, tag string) ([]float64, error) {
	cfg := cache.Config{
		PEs: pes, SizeWords: cacheWords, LineWords: 4,
		Protocol:      cache.WriteInBroadcast,
		WriteAllocate: cache.PaperWriteAllocate(cache.WriteInBroadcast, cacheWords),
	}
	ratios := make([]float64, len(benches))
	err := runGrid(ctx, len(benches), func(i int) error {
		st, err := simulateAll(ctx, benches[i], pes, pes == 1, []cache.Config{cfg})
		if err != nil {
			return err
		}
		ratios[i] = st[0].TrafficRatio()
		progress("%s: %s @ %d PEs: traffic %.3f", tag, benches[i].Name, pes, ratios[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ratios, nil
}
