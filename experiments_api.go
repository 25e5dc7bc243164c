package rapwam

import (
	"context"

	"repro/internal/bench"
	"repro/internal/busmodel"
	"repro/internal/experiments"
	"repro/internal/tracestore"
)

// This file re-exports the experiment drivers that regenerate the
// paper's tables and figures. Each returns structured data with a
// String() rendering.
//
// The drivers run on a grid Runner: every (benchmark, PEs, sequential)
// engine run is generated once into the Runner's trace store, every
// cache configuration consuming one trace is simulated concurrently in
// a single pass over it, and independent grid cells execute on a
// bounded worker pool. The package-level drivers run on a default
// Runner (an in-memory store, GOMAXPROCS workers, no progress);
// NewRunner builds one with other settings, whose methods are the
// same drivers.

// Runner re-exports the experiment grid runner: its trace store,
// worker-pool width and progress callback, passed explicitly.
type Runner = experiments.Runner

// NewRunner returns a Runner over store (nil: a fresh in-memory
// store). par bounds concurrent grid cells (<= 0: GOMAXPROCS);
// progress, when non-nil, receives one line per completed grid cell
// and may be called from several goroutines at once. Results are
// identical at any width and over any store.
func NewRunner(store *TraceStore, par int, progress func(msg string)) *Runner {
	return experiments.NewRunner(store, par, progress)
}

// SetTraceStore points the package-level drivers (and TraceBenchmark,
// EnsureTraceStored, GenerateTraces) at a persistent trace store; nil
// gives them a fresh in-memory one. Every (benchmark, PEs, sequential)
// emulator run is then performed at most once per emulator version:
// the trace streams into the store's compact codec, the run's
// statistics go into a sidecar, and every later experiment — in this
// process or the next — replays from disk, chunk by chunk, without
// materializing the trace. Results are bit-identical either way.
func SetTraceStore(s *TraceStore) { experiments.SetStore(s) }

// SetTraceDir opens (creating if needed) the trace store rooted at dir
// and attaches it (SetTraceStore); an empty dir attaches a fresh
// in-memory store. It returns the attached store.
func SetTraceDir(dir string) (*TraceStore, error) {
	if dir == "" {
		experiments.SetStore(nil)
		return experiments.Default().Store, nil
	}
	s, err := tracestore.Open(dir)
	if err != nil {
		return nil, err
	}
	experiments.SetStore(s)
	return s, nil
}

// TraceTarget re-exports one trace-generation cell for GenerateTraces.
type TraceTarget = experiments.TraceTarget

// GenerateTraces generates every missing target cell into the attached
// trace store (SetTraceStore), independent cells concurrently on the
// bounded worker pool; Runner.GenerateTraces does the same on any
// Runner.
func GenerateTraces(ctx context.Context, targets []TraceTarget) error {
	return experiments.GenerateTraces(ctx, targets)
}

// EngineRuns returns the number of emulator executions performed in
// this process so far. Comparing it before and after a sweep verifies
// that a warm trace store eliminates regeneration (the delta is 0).
func EngineRuns() int64 { return bench.EngineRuns() }

// Table1 renders the storage-object classification (paper Table 1).
func Table1() string { return experiments.Table1() }

// Figure2 re-exports the deriv overhead sweep result type.
type Figure2 = experiments.Figure2

// RunFigure2 sweeps deriv work/overhead over the given PE counts
// (paper Figure 2 plots 1 to 40).
func RunFigure2(ctx context.Context, peCounts []int) (*Figure2, error) {
	return experiments.RunFigure2(ctx, peCounts)
}

// Table2 re-exports the benchmark-statistics result type.
type Table2 = experiments.Table2

// RunTable2 gathers benchmark statistics at the given PE count (the
// paper uses 8).
func RunTable2(ctx context.Context, pes int) (*Table2, error) {
	return experiments.RunTable2(ctx, pes)
}

// Table3 re-exports the locality-fit result type.
type Table3 = experiments.Table3

// RunTable3 computes the small-vs-large benchmark locality fit at the
// paper's 512 and 1024 word cache sizes.
func RunTable3(ctx context.Context) (*Table3, error) { return experiments.RunTable3(ctx) }

// Figure4 re-exports the coherency-traffic sweep result type.
type Figure4 = experiments.Figure4

// RunFigure4 sweeps traffic ratio over cache sizes, protocols and PE
// counts (paper Figure 4).
func RunFigure4(ctx context.Context, peCounts, sizes []int) (*Figure4, error) {
	return experiments.RunFigure4(ctx, peCounts, sizes)
}

// MLIPS re-exports the §3.3 feasibility calculation result type.
type MLIPS = experiments.MLIPS

// RunMLIPS re-derives the paper's 2 MLIPS back-of-the-envelope
// calculation from measured statistics.
func RunMLIPS(ctx context.Context, cacheWords int, targetMLIPS float64) (*MLIPS, error) {
	return experiments.RunMLIPS(ctx, cacheWords, targetMLIPS)
}

// BusStudy re-exports the bus-contention study result type.
type BusStudy = experiments.BusStudy

// RunBusStudy tabulates shared-memory efficiency against bus bandwidth
// for the given configuration.
func RunBusStudy(ctx context.Context, pes, cacheWords int) (*BusStudy, error) {
	return experiments.RunBusStudy(ctx, pes, cacheWords)
}

// BusParams re-exports the analytic bus model parameters.
type BusParams = busmodel.Params

// BusResult re-exports the analytic bus model result.
type BusResult = busmodel.Result

// BusAnalytic evaluates the M/M/1 bus contention approximation.
func BusAnalytic(p BusParams) (BusResult, error) { return busmodel.Analytic(p) }

// BusMaxPEs returns the largest PE count keeping efficiency at or above
// target for the given load.
func BusMaxPEs(p BusParams, target float64) (int, error) {
	return busmodel.MaxPEs(p, target)
}

// GranularitySweep re-exports the CGE granularity ablation result type.
type GranularitySweep = experiments.GranularitySweep

// RunGranularitySweep varies deriv's parallelism depth budget,
// quantifying the parallelism-vs-overhead tradeoff of CGE annotation
// granularity.
func RunGranularitySweep(ctx context.Context, depths []int) (*GranularitySweep, error) {
	return experiments.RunGranularitySweep(ctx, depths)
}

// LineSizeSweep re-exports the cache line-size ablation result type.
type LineSizeSweep = experiments.LineSizeSweep

// RunLineSizeSweep replays a benchmark trace across cache line sizes
// (the paper fixes 4-word lines; this shows where that sits).
func RunLineSizeSweep(ctx context.Context, benchName string, pes, sizeWords int, lines []int) (*LineSizeSweep, error) {
	return experiments.RunLineSizeSweep(ctx, benchName, pes, sizeWords, lines)
}

// LockShare re-exports the synchronization-traffic measurement type.
type LockShare = experiments.LockShare

// RunLockShare measures the fraction of references to locked objects
// (goal stack, parcall counters, messages).
func RunLockShare(ctx context.Context, benchName string, pes int) (*LockShare, error) {
	return experiments.RunLockShare(ctx, benchName, pes)
}

// BusDES re-exports the discrete-event bus validation type.
type BusDES = experiments.BusDES

// RunBusDES replays real bus transactions through the discrete-event
// bus simulator and cross-checks the analytic M/M/1 model.
func RunBusDES(ctx context.Context, benchName string, pes, cacheWords int, busWordsPerCycle float64) (*BusDES, error) {
	return experiments.RunBusDES(ctx, benchName, pes, cacheWords, busWordsPerCycle)
}

// AssocSweep re-exports the associativity ablation result type.
type AssocSweep = experiments.AssocSweep

// RunAssocSweep compares the paper's fully associative cache model with
// set-associative caches of the same capacity (0 ways = fully
// associative).
func RunAssocSweep(ctx context.Context, benchName string, pes, sizeWords int, ways []int) (*AssocSweep, error) {
	return experiments.RunAssocSweep(ctx, benchName, pes, sizeWords, ways)
}
