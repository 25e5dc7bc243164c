package bench

// Persistent trace-store integration. Every benchmark cell — one
// (benchmark, PEs, sequential) engine run — is generated into a store
// at most once per emulator version: the run streams its reference
// trace straight into the store's compact encoder (never buffering it)
// and records its engine statistics in a JSON sidecar, and later
// callers replay from the store. The store is always an explicit
// argument; the experiments Runner owns one.

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// engineRuns counts emulator executions (Run calls) since process
// start — the observable that verifies a warm trace store eliminates
// regeneration. Callers compare deltas.
var engineRuns atomic.Int64

// EngineRuns returns the number of emulator executions performed so
// far (every Run call, including runs on behalf of EnsureStored and the
// experiment drivers).
func EngineRuns() int64 { return engineRuns.Load() }

// cellFlights single-flights concurrent generation of the same cell in
// the same store. Flights are removed on completion — success lives on
// in the store itself (the next caller's Has check hits), and failures
// are never memoized, so a quarantined or lost cell regenerates on the
// next call instead of replaying a stale error forever.
var cellFlights sync.Map // cellFlightKey -> *cellFlight

// cellFlightKey scopes a flight to one store: a generation into store
// A never satisfies a waiter on store B.
type cellFlightKey struct {
	store *tracestore.Store
	key   tracestore.Key
}

type cellFlight struct {
	done chan struct{}
	err  error
}

// StoreKey returns the trace-store key for a benchmark cell under the
// current emulator version.
func StoreKey(benchmark string, pes int, sequential bool) tracestore.Key {
	return tracestore.Key{
		Benchmark:       benchmark,
		PEs:             pes,
		Sequential:      sequential,
		EmulatorVersion: core.EmulatorVersion,
	}
}

// RunRecord is the store sidecar written alongside each generated
// trace: the generating run's outcome and instrumentation, so drivers
// that need only statistics (Figure 2, Table 2, MLIPS, lock share)
// skip the emulator exactly like trace consumers do.
type RunRecord struct {
	// Success reports whether the query succeeded (it always has for a
	// stored benchmark cell: generation validates the answer).
	Success bool
	// Stats is the engine instrumentation of the generating run.
	Stats core.Stats
	// Refs is the Table 1 reference counter of the generating run.
	Refs trace.Counter
}

// EnsureStored makes sure s holds the trace and run sidecar for (b,
// pes, sequential), generating them with one engine run if absent.
// Generation is streaming (the trace never materializes in memory) and
// single-flighted per store: concurrent callers for the same cell in s
// block until the one generation completes — the generating caller's
// ctx governs the engine run, so every waiter on a cancelled flight
// observes the context error. It returns the cell's key.
//
// Failures are not memoized: the next call re-checks the store and
// regenerates, which is how a cell quarantined by a corrupt read comes
// back. Callers that keep looping on a persistently failing cell are
// expected to bound their own retries (the experiments grid does).
func EnsureStored(ctx context.Context, s *tracestore.Store, b Benchmark, pes int, sequential bool) (tracestore.Key, error) {
	k := StoreKey(b.Name, pes, sequential)
	fk := cellFlightKey{s, k}
	for {
		f := &cellFlight{done: make(chan struct{})}
		if v, loaded := cellFlights.LoadOrStore(fk, f); loaded {
			// Someone else is generating this cell; wait them out,
			// then re-check the store (their failure is not ours to
			// inherit — a cancelled or faulted generation must not
			// poison callers with live contexts).
			other := v.(*cellFlight)
			//rapwam:allow determinism flight-wait select: both outcomes converge (re-check store / ctx.Err()), and nothing is emitted here
			select {
			case <-other.done:
				if other.err == nil {
					return k, nil
				}
				if ctx.Err() != nil {
					return k, ctx.Err()
				}
				// Their generation failed; loop and try ourselves.
				continue
			case <-ctx.Done():
				return k, ctx.Err()
			}
		}
		f.err = generateCell(ctx, s, k, b, pes, sequential)
		cellFlights.Delete(fk)
		close(f.done)
		return k, f.err
	}
}

// generateCell performs one store-check + generation for a cell.
func generateCell(ctx context.Context, s *tracestore.Store, k tracestore.Key, b Benchmark, pes int, sequential bool) error {
	if s.Has(k) {
		return nil
	}
	var res *core.Result
	err := s.Put(k, func(sink trace.Sink) error {
		r, err := Run(ctx, b, RunConfig{PEs: pes, Sequential: sequential, Sink: sink})
		res = r
		return err
	})
	if err != nil {
		return err
	}
	return s.PutSidecar(k, RunRecord{Success: res.Success, Stats: res.Stats, Refs: *res.Refs})
}

// TraceDirect generates the benchmark's full memory-reference trace
// with one emulator run, bypassing any store — the degraded path when
// storage keeps failing.
func TraceDirect(ctx context.Context, b Benchmark, pes int, sequential bool) (*trace.Buffer, *core.Result, error) {
	buf := trace.NewBuffer(1 << 20)
	res, err := Run(ctx, b, RunConfig{PEs: pes, Sequential: sequential, Sink: buf})
	if err != nil {
		return nil, nil, err
	}
	return buf, res, nil
}
