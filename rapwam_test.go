package rapwam

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/mem"
)

func TestQuickStart(t *testing.T) {
	prog := MustCompile(`
		fib(0, 0).
		fib(1, 1).
		fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,
			(fib(N1, F1) & fib(N2, F2)),
			F is F1 + F2.
	`, "fib(15, F)")
	if !prog.Parallel() {
		t.Error("program should be parallel")
	}
	res, err := prog.Run(RunConfig{PEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bindings["F"] != "610" {
		t.Errorf("F = %s", res.Bindings["F"])
	}
	if res.Stats.GoalsParallel == 0 {
		t.Error("no parallelism observed")
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := Compile("p :-", "p"); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := Compile("p.", "q"); err == nil {
		t.Error("undefined query goal not reported")
	}
}

// TestRunUnmapsOnFailure pins that Program.Run unmaps the engine's
// address space when the run fails: a runaway loop stopped by
// MaxCycles and a heap overflow both leave mem.MappedBytes unchanged.
func TestRunUnmapsOnFailure(t *testing.T) {
	for _, tc := range []struct {
		name, src, query, want string
		cfg                    RunConfig
	}{
		{"runaway", "loop :- loop.", "loop", "exceeded 10000 cycles", RunConfig{MaxCycles: 10000}},
		{"heap-overflow", "grow(L) :- grow([x|L]).", "grow([])", "heap overflow", RunConfig{HeapWords: 4096}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := mem.MappedBytes()
			_, err := MustCompile(tc.src, tc.query).Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run error = %v, want one containing %q", err, tc.want)
			}
			if got := mem.MappedBytes(); got != before {
				t.Fatalf("%d bytes still mapped after the failed run, want %d", got, before)
			}
		})
	}
}

func TestSequentialOption(t *testing.T) {
	prog, err := CompileWithOptions("p(X) :- q(X) & r(X). q(1). r(1).", "p(A)",
		CompileOptions{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Parallel() {
		t.Error("sequential compile should not be parallel")
	}
	res, err := prog.Run(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bindings["A"] != "1" {
		t.Errorf("A = %s", res.Bindings["A"])
	}
}

func TestTraceCaptureAndCacheSim(t *testing.T) {
	prog := MustCompile(`
		app([], L, L).
		app([H|T], L, [H|R]) :- app(T, L, R).
	`, "app([1,2,3,4,5], [6,7,8], X)")
	res, err := prog.Run(RunConfig{CaptureTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("no trace captured")
	}
	st, err := SimulateCache(res.Trace, CacheConfig{
		PEs: 1, SizeWords: 256, LineWords: 4, Protocol: Copyback, WriteAllocate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs != int64(res.Trace.Len()) {
		t.Errorf("cache saw %d refs, trace has %d", st.Refs, res.Trace.Len())
	}
	if st.TrafficRatio() <= 0 || st.TrafficRatio() > 2 {
		t.Errorf("traffic ratio = %v", st.TrafficRatio())
	}
}

func TestStreamingSinkMatchesCapturedTrace(t *testing.T) {
	// Streaming a run directly into a cache simulator (no trace buffer)
	// must match capturing the trace and replaying it afterwards.
	src := `
		app([], L, L).
		app([H|T], L, [H|R]) :- app(T, L, R).
	`
	cfg := CacheConfig{
		PEs: 1, SizeWords: 256, LineWords: 4, Protocol: Copyback, WriteAllocate: true,
	}
	live, err := NewCacheSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MustCompile(src, "app([1,2,3,4,5], [6,7,8], X)").
		Run(RunConfig{CaptureTrace: true, Sink: live})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("no trace captured alongside the stream")
	}
	replayed, err := SimulateCache(res.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live.Stats() != replayed {
		t.Errorf("streamed stats %+v != replayed stats %+v", live.Stats(), replayed)
	}
}

func TestTraceReplayAllMatchesSimulateCache(t *testing.T) {
	bm, ok := BenchmarkByName("deriv")
	if !ok {
		t.Fatal("deriv missing")
	}
	tr, err := TraceBenchmark(context.Background(), bm, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := replayBenchConfigs(2)
	all, err := tr.ReplayAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		one, err := SimulateCache(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if all[i] != one {
			t.Errorf("config %d: ReplayAll %+v != SimulateCache %+v", i, all[i], one)
		}
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	prog := MustCompile("p(1).", "p(X)")
	res, err := prog.Run(RunConfig{CaptureTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := res.Trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != res.Trace.Len() {
		t.Errorf("round trip: %d != %d", back.Len(), res.Trace.Len())
	}
}

func TestBenchmarkAccessors(t *testing.T) {
	if len(PaperBenchmarks()) != 4 {
		t.Error("want 4 paper benchmarks")
	}
	if len(LargeBenchmarks()) != 4 {
		t.Error("want 4 large benchmarks")
	}
	b, ok := BenchmarkByName("tak")
	if !ok {
		t.Fatal("tak missing")
	}
	res, err := RunBenchmark(context.Background(), b, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Error("tak failed")
	}
	tr, err := TraceBenchmark(context.Background(), b, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Error("empty benchmark trace")
	}
}

func TestTable1Exported(t *testing.T) {
	if !strings.Contains(Table1(), "parcall/counts") {
		t.Error("Table1 incomplete")
	}
}

func TestBusAnalyticExported(t *testing.T) {
	r, err := BusAnalytic(BusParams{PEs: 8, RefsPerCycle: 1, TrafficRatio: 0.1, BusWordsPerCycle: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Efficiency <= 0 || r.Efficiency > 1 {
		t.Errorf("efficiency = %v", r.Efficiency)
	}
	n, err := BusMaxPEs(BusParams{PEs: 1, RefsPerCycle: 1, TrafficRatio: 0.1, BusWordsPerCycle: 4}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Errorf("MaxPEs = %d", n)
	}
}

func TestPaperWriteAllocateExported(t *testing.T) {
	if PaperWriteAllocate(WriteInBroadcast, 64) {
		t.Error("64-word caches are no-write-allocate")
	}
	if !PaperWriteAllocate(WriteInBroadcast, 1024) {
		t.Error("1024-word caches are write-allocate")
	}
}
