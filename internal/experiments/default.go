package experiments

import (
	"context"
	"sync/atomic"

	"repro/internal/tracestore"
)

// The package-level drivers run on a default Runner: an in-memory
// store at the default width, without progress. SetStore swaps its
// store; everything else that wants other settings builds its own
// Runner.

var defaultRunner atomic.Pointer[Runner]

func init() { SetStore(nil) }

// Default returns the Runner the package-level drivers run on.
func Default() *Runner { return defaultRunner.Load() }

// SetStore replaces the default Runner with one over s (nil: a fresh
// in-memory store).
func SetStore(s *tracestore.Store) { defaultRunner.Store(NewRunner(s, 0, nil)) }

// GenerateTraces runs Runner.GenerateTraces on Default().
func GenerateTraces(ctx context.Context, targets []TraceTarget) error {
	return Default().GenerateTraces(ctx, targets)
}

// RunFigure2 runs Runner.RunFigure2 on Default().
func RunFigure2(ctx context.Context, peCounts []int) (*Figure2, error) {
	return Default().RunFigure2(ctx, peCounts)
}

// RunTable2 runs Runner.RunTable2 on Default().
func RunTable2(ctx context.Context, pes int) (*Table2, error) {
	return Default().RunTable2(ctx, pes)
}

// RunTable3 runs Runner.RunTable3 on Default().
func RunTable3(ctx context.Context) (*Table3, error) { return Default().RunTable3(ctx) }

// RunFigure4 runs Runner.RunFigure4 on Default().
func RunFigure4(ctx context.Context, peCounts, sizes []int) (*Figure4, error) {
	return Default().RunFigure4(ctx, peCounts, sizes)
}

// RunMLIPS runs Runner.RunMLIPS on Default().
func RunMLIPS(ctx context.Context, cacheWords int, targetMLIPS float64) (*MLIPS, error) {
	return Default().RunMLIPS(ctx, cacheWords, targetMLIPS)
}

// RunBusStudy runs Runner.RunBusStudy on Default().
func RunBusStudy(ctx context.Context, pes, cacheWords int) (*BusStudy, error) {
	return Default().RunBusStudy(ctx, pes, cacheWords)
}

// RunGranularitySweep runs Runner.RunGranularitySweep on Default().
func RunGranularitySweep(ctx context.Context, depths []int) (*GranularitySweep, error) {
	return Default().RunGranularitySweep(ctx, depths)
}

// RunLineSizeSweep runs Runner.RunLineSizeSweep on Default().
func RunLineSizeSweep(ctx context.Context, benchName string, pes, sizeWords int, lines []int) (*LineSizeSweep, error) {
	return Default().RunLineSizeSweep(ctx, benchName, pes, sizeWords, lines)
}

// RunLockShare runs Runner.RunLockShare on Default().
func RunLockShare(ctx context.Context, benchName string, pes int) (*LockShare, error) {
	return Default().RunLockShare(ctx, benchName, pes)
}

// RunBusDES runs Runner.RunBusDES on Default().
func RunBusDES(ctx context.Context, benchName string, pes, cacheWords int, busWordsPerCycle float64) (*BusDES, error) {
	return Default().RunBusDES(ctx, benchName, pes, cacheWords, busWordsPerCycle)
}

// RunAssocSweep runs Runner.RunAssocSweep on Default().
func RunAssocSweep(ctx context.Context, benchName string, pes, sizeWords int, ways []int) (*AssocSweep, error) {
	return Default().RunAssocSweep(ctx, benchName, pes, sizeWords, ways)
}
