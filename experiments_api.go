package rapwam

import (
	"context"

	"repro/internal/busmodel"
	"repro/internal/experiments"
	"repro/internal/tracestore"
)

// This file re-exports the experiment drivers that regenerate the
// paper's tables and figures. Each returns structured data with a
// String() rendering.
//
// The drivers that sweep parameter grids (Figure 4, Table 3, MLIPS,
// the bus study and the cache ablations) run on a shared grid runner:
// engine traces are memoized per (benchmark, PEs, sequential), every
// cache configuration consuming one trace is simulated concurrently in
// a single pass over it, and independent grid cells execute on a
// bounded worker pool (see SetParallelism).

// SetParallelism bounds how many experiment grid cells (engine runs
// and trace replays) execute concurrently. n <= 0 restores the
// default, runtime.GOMAXPROCS(0). Results are identical at any
// parallelism level; only wall-clock time changes.
func SetParallelism(n int) { experiments.SetParallelism(n) }

// Parallelism returns the current experiment worker-pool width.
func Parallelism() int { return experiments.Parallelism() }

// SetProgress installs a callback receiving one short line per
// completed experiment grid cell (nil disables progress reporting).
// The callback may be invoked from multiple goroutines concurrently.
func SetProgress(f func(msg string)) { experiments.SetProgress(f) }

// ResetTraceCache drops the memoized benchmark traces the experiment
// drivers share (a few MB per distinct benchmark × PE-count entry).
func ResetTraceCache() { experiments.ResetTraceCache() }

// SetTraceStore attaches (nil: detaches) a persistent trace store.
// With a store attached, every (benchmark, PEs, sequential) emulator
// run is performed at most once per emulator version: the trace
// streams into the store's compact codec, the run's statistics go into
// a sidecar, and every later experiment — in this process or the next
// — replays from disk, chunk by chunk, without materializing the
// trace. Results are bit-identical to the in-memory path.
func SetTraceStore(s *TraceStore) { experiments.SetStore(s) }

// SetTraceDir opens (creating if needed) the trace store rooted at dir
// and attaches it; an empty dir detaches the store. It is the
// one-liner behind the CLIs' -tracedir flag.
func SetTraceDir(dir string) (*TraceStore, error) {
	if dir == "" {
		experiments.SetStore(nil)
		return nil, nil
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
// trace store, independent cells concurrently on the bounded worker
// pool (SetParallelism). cmd/tracegen's generate subcommand is a thin
// wrapper around it.
func GenerateTraces(ctx context.Context, targets []TraceTarget) error {
	return experiments.GenerateTraces(ctx, targets)
}

// EngineRuns returns the number of emulator executions performed so
// far — the observable that verifies a warm trace store eliminates
// regeneration (a full experiment sweep over a warm store reports 0).
func EngineRuns() int64 { return experiments.EngineRuns() }

// ResetEngineRuns zeroes the emulator-execution counter.
func ResetEngineRuns() { experiments.ResetEngineRuns() }

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
