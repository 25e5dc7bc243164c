package experiments

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// dirRunner returns a Runner over a fresh directory store rooted in a
// test temp dir.
func dirRunner(t *testing.T) *Runner {
	t.Helper()
	s, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return NewRunner(s, 0, nil)
}

// testConfigs is a small protocol × size grid.
func testConfigs(pes int) []cache.Config {
	var cfgs []cache.Config
	for _, proto := range []cache.Protocol{cache.WriteInBroadcast, cache.Hybrid, cache.WriteThrough} {
		for _, size := range []int{128, 1024} {
			cfgs = append(cfgs, cache.Config{
				PEs: pes, SizeWords: size, LineWords: 4,
				Protocol:      proto,
				WriteAllocate: cache.PaperWriteAllocate(proto, size),
			})
		}
	}
	return cfgs
}

// TestStoreStreamedReplayParity checks the acceptance criterion that
// streamed replay from disk produces bit-identical statistics —
// aggregate and per-PE — to replaying a directly captured trace,
// across protocols, for a parallel and a sequential workload.
func TestStoreStreamedReplayParity(t *testing.T) {
	cells := []struct {
		name string
		pes  int
		seq  bool
	}{
		{"qsort", 4, false},
		{"deriv", 1, true},
	}
	for _, cell := range cells {
		b, ok := bench.ByName(cell.name)
		if !ok {
			t.Fatalf("unknown benchmark %q", cell.name)
		}
		cfgs := testConfigs(cell.pes)

		// Reference: capture the trace directly, replay per config.
		buf, _, err := bench.TraceDirect(context.Background(), b, cell.pes, cell.seq)
		if err != nil {
			t.Fatal(err)
		}
		wantSims := make([]*cache.Sim, len(cfgs))
		for i, cfg := range cfgs {
			wantSims[i] = cache.New(cfg)
			buf.Replay(wantSims[i])
		}

		// Store path: generate into the store, stream from disk through
		// the fan-out into all configs at once.
		var gotSims []*cache.Sim
		err = dirRunner(t).replay(context.Background(), b, cell.pes, cell.seq, func(feed func([]trace.Sink) error) error {
			gotSims = make([]*cache.Sim, len(cfgs))
			sinks := make([]trace.Sink, len(cfgs))
			for i, cfg := range cfgs {
				gotSims[i] = cache.New(cfg)
				sinks[i] = gotSims[i]
			}
			return feed(sinks)
		})
		if err != nil {
			t.Fatal(err)
		}

		for i := range cfgs {
			if got, want := gotSims[i].Stats(), wantSims[i].Stats(); got != want {
				t.Errorf("%s@%d cfg %d: streamed stats %+v != direct %+v", cell.name, cell.pes, i, got, want)
			}
			if got, want := gotSims[i].PerPEBusWords(), wantSims[i].PerPEBusWords(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s@%d cfg %d: per-PE bus words %v != %v", cell.name, cell.pes, i, got, want)
			}
			if got, want := gotSims[i].PerPERefs(), wantSims[i].PerPERefs(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s@%d cfg %d: per-PE refs %v != %v", cell.name, cell.pes, i, got, want)
			}
		}
	}
}

// TestWarmStoreRunsNoEmulation is the acceptance criterion for the
// store: once warm, a full mix of experiment drivers — trace-driven
// sweeps, stats-only drivers, counter-based and OnBus-based ablations —
// performs zero emulator runs, and every result is identical to the
// cold pass that generated the store.
func TestWarmStoreRunsNoEmulation(t *testing.T) {
	run := dirRunner(t)

	type results struct {
		fig2 *Figure2
		t2   *Table2
		fig4 *Figure4
		line *LineSizeSweep
		lock *LockShare
		des  *BusDES
	}
	runAll := func() (results, error) {
		ctx := context.Background()
		var r results
		var err error
		if r.fig2, err = run.RunFigure2(ctx, []int{1, 2}); err != nil {
			return r, err
		}
		if r.t2, err = run.RunTable2(ctx, 2); err != nil {
			return r, err
		}
		if r.fig4, err = run.RunFigure4(ctx, []int{2}, []int{128, 1024}); err != nil {
			return r, err
		}
		if r.line, err = run.RunLineSizeSweep(ctx, "qsort", 2, 512, []int{2, 8}); err != nil {
			return r, err
		}
		if r.lock, err = run.RunLockShare(ctx, "qsort", 2); err != nil {
			return r, err
		}
		r.des, err = run.RunBusDES(ctx, "qsort", 2, 256, 4)
		return r, err
	}

	before := bench.EngineRuns()
	cold, err := runAll()
	if err != nil {
		t.Fatal(err)
	}
	if bench.EngineRuns() == before {
		t.Fatal("cold pass reported zero engine runs")
	}

	before = bench.EngineRuns()
	warm, err := runAll()
	if err != nil {
		t.Fatal(err)
	}
	if n := bench.EngineRuns() - before; n != 0 {
		t.Fatalf("warm store still performed %d emulator runs", n)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("warm results differ from cold results")
	}
}

// TestStoreVsMemoryDriverParity runs the same drivers on a Runner over
// a directory store and one over an in-memory store and requires
// identical outputs: the store backend must be invisible in the
// numbers.
func TestStoreVsMemoryDriverParity(t *testing.T) {
	run := func(r *Runner) (*Figure4, *Table2, *LockShare) {
		f4, err := r.RunFigure4(context.Background(), []int{2}, []int{256})
		if err != nil {
			t.Fatal(err)
		}
		t2, err := r.RunTable2(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := r.RunLockShare(context.Background(), "matrix", 2)
		if err != nil {
			t.Fatal(err)
		}
		return f4, t2, ls
	}

	memF4, memT2, memLS := run(NewRunner(nil, 0, nil))
	dirF4, dirT2, dirLS := run(dirRunner(t))

	if !reflect.DeepEqual(memF4, dirF4) {
		t.Errorf("Figure4 differs: mem %+v dir %+v", memF4, dirF4)
	}
	if !reflect.DeepEqual(memT2, dirT2) {
		t.Errorf("Table2 differs: mem %+v dir %+v", memT2, dirT2)
	}
	if !reflect.DeepEqual(memLS, dirLS) {
		t.Errorf("LockShare differs: mem %+v dir %+v", memLS, dirLS)
	}
}

// TestRunStatsRepairsMissingSidecar simulates a store whose trace
// survived but whose sidecar write was interrupted: the first stats
// query falls back to one emulator run and rewrites the sidecar, so
// later queries are served from the store again.
func TestRunStatsRepairsMissingSidecar(t *testing.T) {
	r := dirRunner(t)
	b, _ := bench.ByName("matrix")
	if _, err := bench.EnsureStored(context.Background(), r.Store, b, 2, false); err != nil {
		t.Fatal(err)
	}
	k := bench.StoreKey("matrix", 2, false)
	sidecar := strings.TrimSuffix(r.Store.Path(k), tracestore.TraceExt) + ".json"
	if err := os.Remove(sidecar); err != nil {
		t.Fatalf("removing sidecar: %v", err)
	}

	before := bench.EngineRuns()
	if _, _, err := r.runStats(context.Background(), b, 2, false); err != nil {
		t.Fatal(err)
	}
	if n := bench.EngineRuns() - before; n != 1 {
		t.Fatalf("fallback performed %d engine runs, want 1", n)
	}
	before = bench.EngineRuns()
	if _, _, err := r.runStats(context.Background(), b, 2, false); err != nil {
		t.Fatal(err)
	}
	if n := bench.EngineRuns() - before; n != 0 {
		t.Fatalf("sidecar not repaired: %d engine runs on second query", n)
	}
}

// TestParallelGenerationSingleFlight checks that concurrent grid cells
// needing the same trace generate it exactly once, while distinct cells
// generate in parallel on the pool.
func TestParallelGenerationSingleFlight(t *testing.T) {
	r := dirRunner(t)
	before := bench.EngineRuns()

	// 4 distinct cells × 3 configs each, all cells touched twice.
	benches := []string{"qsort", "matrix"}
	pesList := []int{1, 2}
	var total int
	for range []int{0, 1} { // two sweeps over the same cells
		err := r.runGrid(context.Background(), len(benches)*len(pesList), func(i int) error {
			b, _ := bench.ByName(benches[i%len(benches)])
			pes := pesList[i/len(benches)]
			_, err := r.simulateAll(context.Background(), b, pes, pes == 1, testConfigs(pes)[:3])
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		total += len(benches) * len(pesList)
	}
	if n := bench.EngineRuns() - before; n != int64(len(benches)*len(pesList)) {
		t.Fatalf("%d cells over %d sweeps ran the emulator %d times, want once per cell (%d)",
			total, 2, n, len(benches)*len(pesList))
	}
}
