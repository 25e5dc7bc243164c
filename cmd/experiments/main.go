// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all          # everything (takes a minute or two)
//	experiments -exp table1
//	experiments -exp fig2 [-maxpes 40]
//	experiments -exp table2 [-pes 8]
//	experiments -exp table3
//	experiments -exp fig4
//	experiments -exp mlips [-cache 256] [-target 2]
//	experiments -exp bus [-pes 8] [-cache 256]
//
// Grid experiments (table3, fig4, mlips, bus, ablations) run on a
// bounded worker pool over stored traces, simulating all cache
// configurations per trace concurrently in a single pass; -par bounds
// the pool, and -progress reports per-cell completion on stderr.
//
// Every emulator run is performed once: its trace streams into a
// store in the compact codec and replays from it chunk by chunk. The
// store is in memory unless -tracedir DIR puts it on disk, where it
// persists: a second -exp all over the same directory performs zero
// emulator runs (the run summary on stderr reports the count). Warm
// the store ahead of time with cmd/tracegen.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro"

	"repro/internal/cliflag"
	"repro/internal/profflag"
)

// validatePEs enforces the PE-count bounds at the flag boundary, so a
// bad -pes/-maxpes fails with one line instead of a deep engine error.
func validatePEs(flagName string, n int) {
	if n < 1 || n > rapwam.MaxPEs {
		fmt.Fprintf(os.Stderr, "experiments: -%s %d: PE count must be in [1, %d]\n", flagName, n, rapwam.MaxPEs)
		os.Exit(2)
	}
}

// resolveWorkers validates a worker-count flag, exiting with one line
// on a negative value.
func resolveWorkers(name string, n int) int {
	v, err := cliflag.Resolve(name, n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	return v
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|fig2|table2|table3|fig4|mlips|bus|ablations|all")
		pes      = flag.Int("pes", 8, "PE count for table2/bus")
		maxPEs   = flag.Int("maxpes", 16, "largest PE count for fig2")
		cache    = flag.Int("cache", 256, "cache size (words) for mlips/bus")
		target   = flag.Float64("target", 2, "MLIPS target")
		par      = cliflag.Par(flag.CommandLine)
		traceDir = flag.String("tracedir", "", "persistent trace store directory (consulted before any emulator run)")
		progress = flag.Bool("progress", false, "report per-cell progress on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()
	validatePEs("pes", *pes)
	validatePEs("maxpes", *maxPEs)
	parN := resolveWorkers("par", *par)

	// Ctrl-C / SIGTERM cancel the experiment context: in-flight grid
	// cells (including the emulator's instruction loop) abort promptly,
	// partial store writes are cleaned up, and the deferred summary
	// still prints.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stop := profflag.Start(*cpuProf, *memProf, func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	})
	defer stop()

	var store *rapwam.TraceStore
	if *traceDir != "" {
		s, err := rapwam.OpenTraceStore(*traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		store = s
	}
	grid := rapwam.NewRunner(store, parN, nil)
	if *progress {
		grid.Progress = func(msg string) { fmt.Fprintf(os.Stderr, "experiments: %s\n", msg) }
		fmt.Fprintf(os.Stderr, "experiments: grid parallelism %d\n", grid.Parallelism())
	}
	if store != nil {
		defer func() {
			st := store.Stats()
			fmt.Fprintf(os.Stderr, "experiments: trace store %s: %d hits, %d misses, %d traces written, %d emulator runs\n",
				*traceDir, st.Hits, st.Misses, st.Puts, rapwam.EngineRuns())
		}()
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "experiments: interrupted during %s; completed experiments were printed, the trace store holds only complete cells\n", name)
				stop()
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		fmt.Print(rapwam.Table1())
		return nil
	})

	run("fig2", func() error {
		counts := []int{1, 2, 4, 8}
		for n := 12; n <= *maxPEs; n += 4 {
			counts = append(counts, n)
		}
		f, err := grid.RunFigure2(ctx, counts)
		if err != nil {
			return err
		}
		fmt.Print(f.String())
		return nil
	})

	run("table2", func() error {
		t2, err := grid.RunTable2(ctx, *pes)
		if err != nil {
			return err
		}
		fmt.Print(t2.String())
		return nil
	})

	run("table3", func() error {
		t3, err := grid.RunTable3(ctx)
		if err != nil {
			return err
		}
		fmt.Print(t3.String())
		return nil
	})

	run("fig4", func() error {
		f, err := grid.RunFigure4(ctx, []int{1, 2, 4, 8}, []int{64, 128, 256, 512, 1024, 2048, 4096, 8192})
		if err != nil {
			return err
		}
		fmt.Print(f.String())
		return nil
	})

	run("mlips", func() error {
		m, err := grid.RunMLIPS(ctx, *cache, *target)
		if err != nil {
			return err
		}
		fmt.Print(m.String())
		return nil
	})

	run("bus", func() error {
		bs, err := grid.RunBusStudy(ctx, *pes, *cache)
		if err != nil {
			return err
		}
		fmt.Print(bs.String())
		des, err := grid.RunBusDES(ctx, "qsort", *pes, *cache, 4)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(des.String())
		return nil
	})

	run("ablations", func() error {
		g, err := grid.RunGranularitySweep(ctx, []int{0, 1, 2, 3, 4, 6})
		if err != nil {
			return err
		}
		fmt.Print(g.String())
		fmt.Println()
		l, err := grid.RunLineSizeSweep(ctx, "qsort", 4, 1024, []int{1, 2, 4, 8, 16})
		if err != nil {
			return err
		}
		fmt.Print(l.String())
		fmt.Println()
		for _, b := range []string{"deriv", "qsort", "matrix"} {
			ls, err := grid.RunLockShare(ctx, b, *pes)
			if err != nil {
				return err
			}
			fmt.Print(ls.String())
		}
		fmt.Println()
		a, err := grid.RunAssocSweep(ctx, "qsort", 4, 1024, []int{1, 2, 4, 8, 0})
		if err != nil {
			return err
		}
		fmt.Print(a.String())
		return nil
	})
}
