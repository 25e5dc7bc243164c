package rapwam_test

import (
	"context"
	"fmt"
	"log"
	"os"

	rapwam "repro"
)

// ExampleProgram_Run compiles a tiny AND-parallel program and runs it
// on 4 processing elements.
func ExampleProgram_Run() {
	prog, err := rapwam.Compile(`
		fib(0, 0).
		fib(1, 1).
		fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,
			(fib(N1, F1) & fib(N2, F2)),
			F is F1 + F2.
	`, "fib(10, F)")
	if err != nil {
		log.Fatal(err)
	}
	res, err := prog.Run(rapwam.RunConfig{PEs: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("F =", res.Bindings["F"])
	fmt.Println("parallel goals >", res.Stats.GoalsParallel > 0)
	// Output:
	// F = 55
	// parallel goals > true
}

// ExampleTrace_ReplayAll traces one benchmark run and replays the
// trace through several cache configurations in a single concurrent
// pass — the trace is walked once, not once per configuration, and
// the statistics are bit-identical to simulating each configuration
// alone.
func ExampleTrace_ReplayAll() {
	bm, ok := rapwam.BenchmarkByName("qsort-60") // a small sized variant
	if !ok {
		log.Fatal("unknown benchmark")
	}
	tr, err := rapwam.TraceBenchmark(context.Background(), bm, 2, false)
	if err != nil {
		log.Fatal(err)
	}

	sizes := []int{128, 1024, 8192}
	cfgs := make([]rapwam.CacheConfig, len(sizes))
	for i, size := range sizes {
		cfgs[i] = rapwam.CacheConfig{
			PEs: 2, SizeWords: size, LineWords: 4,
			Protocol:      rapwam.WriteInBroadcast,
			WriteAllocate: rapwam.PaperWriteAllocate(rapwam.WriteInBroadcast, size),
		}
	}
	stats, err := tr.ReplayAll(cfgs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("configurations simulated:", len(stats))
	// Bigger caches capture more traffic: the paper's Figure 4 shape.
	fmt.Println("traffic falls with size:",
		stats[0].TrafficRatio() > stats[1].TrafficRatio() &&
			stats[1].TrafficRatio() > stats[2].TrafficRatio())
	// Output:
	// configurations simulated: 3
	// traffic falls with size: true
}

// ExampleOpenTraceStore shows the persistent trace store: the first
// request for a cell runs the emulator once, streaming the trace to
// disk; every later request — here a replay and a second trace fetch —
// is served from the store without any emulator run.
func ExampleOpenTraceStore() {
	dir, err := os.MkdirTemp("", "traces")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	store, err := rapwam.OpenTraceStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	rapwam.SetTraceStore(store)
	defer rapwam.SetTraceStore(nil)

	bm, _ := rapwam.BenchmarkByName("nrev-60")
	before := rapwam.EngineRuns()

	// First fetch: generated through the store (one emulator run).
	tr1, err := rapwam.TraceBenchmark(context.Background(), bm, 2, false)
	if err != nil {
		log.Fatal(err)
	}
	// Second fetch: decoded from disk, no emulator run.
	tr2, err := rapwam.TraceBenchmark(context.Background(), bm, 2, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same trace:", tr1.Len() == tr2.Len())
	fmt.Println("emulator runs:", rapwam.EngineRuns()-before)

	key := rapwam.TraceStoreKey(bm.Name, 2, false)
	fmt.Println("stored cell:", key.Benchmark, "at", key.PEs, "PEs")
	// Output:
	// same trace: true
	// emulator runs: 1
	// stored cell: nrev-60 at 2 PEs
}
