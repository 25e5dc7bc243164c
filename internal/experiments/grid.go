package experiments

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
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
//  1. stored cells — each distinct (benchmark, PEs, sequential) engine
//     run is executed once per Runner store, no matter how many grid
//     cells need it: the run streams into the store's compact codec,
//     and every later consumer — including consumers in later
//     processes, for a directory store — replays it chunk by chunk, so
//     the trace never materializes in memory;
//  2. simulateAll — all cache configurations that consume one trace are
//     simulated concurrently in a single pass over it (trace.FanOut);
//  3. runGrid — independent grid cells (different traces) execute on a
//     bounded worker pool.
//
// The engine itself is a deterministic single-goroutine simulation and
// every cache.Sim is driven by exactly one consumer goroutine, so the
// results are bit-identical to the sequential formulation — whichever
// store backend holds the trace, and on the degraded direct path.

// Runner is the grid's state, passed explicitly: the store every cell
// reads its trace from, the worker-pool width, and the progress sink.
// The drivers (RunFigure4, RunTable3, ...) are its methods; the
// package-level functions of the same names run on Default().
type Runner struct {
	// Store holds every cell's trace and run sidecar. It is never nil:
	// NewRunner substitutes an in-memory store.
	Store *tracestore.Store
	// Par bounds the grid cells (engine runs and trace replays) in
	// flight at once; <= 0 means runtime.GOMAXPROCS(0). Results are
	// identical at every width.
	Par int
	// Progress, when non-nil, receives one short line per completed
	// grid cell (e.g. "fig4: deriv @ 8 PEs: 24 configs in one pass").
	// It may be called from several worker goroutines at once.
	Progress func(msg string)
}

// NewRunner returns a Runner over store; a nil store becomes a fresh
// in-memory one (tracestore.NewOn(storage.NewMem())).
func NewRunner(store *tracestore.Store, par int, progress func(msg string)) *Runner {
	if store == nil {
		store = tracestore.NewOn(storage.NewMem())
	}
	return &Runner{Store: store, Par: par, Progress: progress}
}

// Parallelism returns the grid worker-pool width.
func (r *Runner) Parallelism() int {
	if r.Par > 0 {
		return r.Par
	}
	return runtime.GOMAXPROCS(0)
}

// progress reports one completed cell.
func (r *Runner) progress(format string, args ...any) {
	if r.Progress != nil {
		r.Progress(fmt.Sprintf(format, args...))
	}
}

// runGrid executes fn(0..n-1) on the bounded worker pool and returns
// the first error. After an error, cells not yet started are skipped;
// cells already in flight complete (engine runs inside them observe
// ctx themselves and abort mid-run). Cancelling ctx stops the pool at
// the next cell boundary and returns ctx.Err(). Cells must write only
// to their own result slots.
func (r *Runner) runGrid(ctx context.Context, n int, fn func(i int) error) error {
	workers := r.Parallelism()
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

// storeHealAttempts bounds how many times a cell whose store reads
// keep failing is retried before it degrades to a direct run.
const storeHealAttempts = 3

// storeHealable reports whether a store-path failure is worth
// retrying/degrading around: a miss — including quarantined corruption,
// which reads as one — regenerates on the retry, and a backend-side
// storage failure is bypassed by the degraded direct path. Everything
// else — a failing benchmark, cancellation — propagates.
func storeHealable(err error) bool {
	return errors.Is(err, fs.ErrNotExist) || storage.AsBackendError(err)
}

// healed runs fromStore, the store-backed way to serve one cell,
// retrying healable failures up to storeHealAttempts times. If the
// store keeps failing it marks ctx degraded and returns direct(), which
// computes the same answer bypassing the store — storage trouble costs
// latency, never an answer. Each attempt must rebuild any consumer
// state a failed attempt may have partially fed.
func (r *Runner) healed(ctx context.Context, cell string, fromStore, direct func() error) error {
	var err error
	for attempt := 0; attempt < storeHealAttempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = fromStore(); err == nil || !storeHealable(err) {
			return err
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	storage.MarkDegraded(ctx, "trace-store")
	r.progress("%s degrading to direct run: %v", cell, err)
	return direct()
}

// cellName renders a cell for progress lines.
func cellName(b bench.Benchmark, pes int) string {
	return fmt.Sprintf("%s @ %d PEs", b.Name, pes)
}

// replay streams the cell's trace, in one pass, into the consumers
// attempt builds: attempt creates fresh consumers and hands their
// sinks to feed, which decodes the stored trace chunk by chunk
// (generating the cell on first need) and fans it out to every sink in
// emission order. A retry after a mid-stream failure calls attempt
// again, so no consumer sees a partial stream twice.
func (r *Runner) replay(ctx context.Context, b bench.Benchmark, pes int, sequential bool, attempt func(feed func(sinks []trace.Sink) error) error) error {
	return r.healed(ctx, cellName(b, pes), func() error {
		return attempt(func(sinks []trace.Sink) error {
			k, err := bench.EnsureStored(ctx, r.Store, b, pes, sequential)
			if err != nil {
				return err
			}
			if len(sinks) == 1 {
				_, err := r.Store.Replay(k, sinks[0])
				return err
			}
			f := trace.NewFanOut(trace.FanOutConfig{}, sinks...)
			_, err = r.Store.Replay(k, f)
			f.Close()
			return err
		})
	}, func() error {
		buf, _, err := bench.TraceDirect(ctx, b, pes, sequential)
		if err != nil {
			return err
		}
		return attempt(func(sinks []trace.Sink) error {
			buf.ReplayAll(sinks...)
			return nil
		})
	})
}

// Trace returns the cell's full reference trace, decoded from the
// store (generating the cell on first need).
func (r *Runner) Trace(ctx context.Context, b bench.Benchmark, pes int, sequential bool) (*trace.Buffer, error) {
	var buf *trace.Buffer
	err := r.healed(ctx, cellName(b, pes), func() error {
		k, err := bench.EnsureStored(ctx, r.Store, b, pes, sequential)
		if err != nil {
			return err
		}
		buf, _, err = r.Store.Load(k)
		return err
	}, func() (err error) {
		buf, _, err = bench.TraceDirect(ctx, b, pes, sequential)
		return err
	})
	return buf, err
}

// runStats returns the engine statistics and Table 1 reference counter
// for one cell, served from the cell's run sidecar (generating the cell
// on first need). A trace whose sidecar is absent (a foreign store, or
// one just quarantined as corrupt) is rerun directly and the sidecar
// repaired, so the next query is served from the store again.
func (r *Runner) runStats(ctx context.Context, b bench.Benchmark, pes int, sequential bool) (core.Stats, *trace.Counter, error) {
	var rec bench.RunRecord
	run := func() error {
		res, err := bench.Run(ctx, b, bench.RunConfig{PEs: pes, Sequential: sequential})
		if err != nil {
			return err
		}
		rec = bench.RunRecord{Success: res.Success, Stats: res.Stats, Refs: *res.Refs}
		return nil
	}
	err := r.healed(ctx, "stats for "+cellName(b, pes), func() error {
		k, err := bench.EnsureStored(ctx, r.Store, b, pes, sequential)
		if err != nil {
			return err
		}
		if ok, err := r.Store.LoadSidecar(k, &rec); ok || err != nil {
			return err
		}
		if err := run(); err != nil {
			return err
		}
		// Best effort: the statistics themselves are good.
		if err := r.Store.PutSidecar(k, rec); err != nil {
			r.progress("sidecar repair for %v failed: %v", k, err)
		}
		return nil
	}, run)
	if err != nil {
		return core.Stats{}, nil, err
	}
	return rec.Stats, &rec.Refs, nil
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

// GenerateTraces makes sure the Runner's store holds every target
// cell, generating missing ones concurrently on the grid's bounded
// worker pool — each generation streaming straight into the store's
// compact codec. Duplicate targets and targets already present cost
// nothing. Cancelling ctx aborts in-flight engine runs (partial writes
// are cleaned up; completed cells stay).
func (r *Runner) GenerateTraces(ctx context.Context, targets []TraceTarget) error {
	return r.runGrid(ctx, len(targets), func(i int) error {
		t := targets[i]
		k, err := bench.EnsureStored(ctx, r.Store, t.Benchmark, t.PEs, t.Sequential)
		if err != nil {
			return fmt.Errorf("generating %v: %w", k, err)
		}
		r.progress("stored %v", k)
		return nil
	})
}

// simulateAll replays one cell's trace through all configurations in
// a single fan-out pass and returns per-configuration statistics;
// every attempt (see replay) gets fresh simulators.
func (r *Runner) simulateAll(ctx context.Context, b bench.Benchmark, pes int, sequential bool, cfgs []cache.Config) ([]cache.Stats, error) {
	var out []cache.Stats
	err := r.replay(ctx, b, pes, sequential, func(feed func([]trace.Sink) error) (err error) {
		out, err = cache.SimulateAllStream(cfgs, feed)
		return err
	})
	return out, err
}

// protocolRatios computes each benchmark's write-in broadcast traffic
// ratio at the given PE count and cache size — the quantity both the
// MLIPS calculation and the bus study average — as one grid cell per
// benchmark.
func (r *Runner) protocolRatios(ctx context.Context, benches []bench.Benchmark, pes, cacheWords int, tag string) ([]float64, error) {
	cfg := cache.Config{
		PEs: pes, SizeWords: cacheWords, LineWords: 4,
		Protocol:      cache.WriteInBroadcast,
		WriteAllocate: cache.PaperWriteAllocate(cache.WriteInBroadcast, cacheWords),
	}
	ratios := make([]float64, len(benches))
	err := r.runGrid(ctx, len(benches), func(i int) error {
		st, err := r.simulateAll(ctx, benches[i], pes, pes == 1, []cache.Config{cfg})
		if err != nil {
			return err
		}
		ratios[i] = st[0].TrafficRatio()
		r.progress("%s: %s @ %d PEs: traffic %.3f", tag, benches[i].Name, pes, ratios[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ratios, nil
}
