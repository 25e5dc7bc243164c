package main

// sweep-warm: every driver behind `experiments -exp all` over a store
// filled during set-up. Store decode, trace.FanOut and the cache
// kernels do nearly all the work, with zero emulator runs.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/tracestore"
)

// replayWork is one cell a driver replays and how many cache
// configurations consume each replay.
type replayWork struct {
	c       cell
	configs int
}

// sweepDriver is one experiment driver at the defaults of
// `experiments -exp <name>`; its operation is the run plus the text
// rendering the CLI prints.
type sweepDriver struct {
	name string
	// run runs the driver's grid and returns its text rendering, to be
	// called after run returns.
	run func(ctx context.Context) (func() string, error)
	// work is the replay the driver performs (fixed by its grid; the
	// pinned output digest changes if the grid does).
	work []replayWork
}

func paperCells(pes int) []cell {
	var out []cell
	for _, b := range bench.Paper() {
		out = append(out, cell{b.Name, pes, pes == 1})
	}
	return out
}

func withConfigs(cells []cell, configs int) []replayWork {
	out := make([]replayWork, len(cells))
	for i, c := range cells {
		out[i] = replayWork{c, configs}
	}
	return out
}

var fig4PEs = []int{1, 2, 4, 8}
var fig4Sizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}

func sweepDrivers() []sweepDriver {
	var fig4Work []replayWork
	for _, pes := range fig4PEs {
		fig4Work = append(fig4Work, withConfigs(paperCells(pes), 3*len(fig4Sizes))...)
	}
	var table3Cells []cell
	for _, name := range []string{"nrev", "queens", "primes", "zebra", "deriv", "tak", "qsort"} {
		table3Cells = append(table3Cells, cell{name, 1, true})
	}
	qsort4 := cell{"qsort", 4, false}
	return []sweepDriver{
		{name: "fig2", run: func(ctx context.Context) (func() string, error) {
			return renderer(experiments.RunFigure2(ctx, []int{1, 2, 4, 8, 12, 16}))
		}},
		{name: "table2", run: func(ctx context.Context) (func() string, error) {
			return renderer(experiments.RunTable2(ctx, 8))
		}},
		{name: "table3", work: withConfigs(table3Cells, 2), run: func(ctx context.Context) (func() string, error) {
			return renderer(experiments.RunTable3(ctx))
		}},
		{name: "fig4", work: fig4Work, run: func(ctx context.Context) (func() string, error) {
			return renderer(experiments.RunFigure4(ctx, fig4PEs, fig4Sizes))
		}},
		{name: "mlips", work: withConfigs(paperCells(8), 1), run: func(ctx context.Context) (func() string, error) {
			return renderer(experiments.RunMLIPS(ctx, 256, 2))
		}},
		{name: "bus", work: append(withConfigs(paperCells(8), 1), replayWork{cell{"qsort", 8, false}, 1}),
			run: func(ctx context.Context) (func() string, error) {
				bs, err := experiments.RunBusStudy(ctx, 8, 256)
				if err != nil {
					return nil, err
				}
				des, err := experiments.RunBusDES(ctx, "qsort", 8, 256, 4)
				if err != nil {
					return nil, err
				}
				return func() string { return bs.String() + "\n" + des.String() }, nil
			}},
		{name: "ablations", work: []replayWork{{qsort4, 5}, {qsort4, 5}}, run: runAblations},
	}
}

// runAblations runs the four ablation studies of `-exp ablations`.
func runAblations(ctx context.Context) (func() string, error) {
	g, err := experiments.RunGranularitySweep(ctx, []int{0, 1, 2, 3, 4, 6})
	if err != nil {
		return nil, err
	}
	l, err := experiments.RunLineSizeSweep(ctx, "qsort", 4, 1024, []int{1, 2, 4, 8, 16})
	if err != nil {
		return nil, err
	}
	var locks []*experiments.LockShare
	for _, name := range []string{"deriv", "qsort", "matrix"} {
		ls, err := experiments.RunLockShare(ctx, name, 8)
		if err != nil {
			return nil, err
		}
		locks = append(locks, ls)
	}
	a, err := experiments.RunAssocSweep(ctx, "qsort", 4, 1024, []int{1, 2, 4, 8, 0})
	if err != nil {
		return nil, err
	}
	return func() string {
		var b strings.Builder
		b.WriteString(g.String() + "\n" + l.String() + "\n")
		for _, ls := range locks {
			b.WriteString(ls.String())
		}
		b.WriteString("\n" + a.String())
		return b.String()
	}, nil
}

func renderer[T fmt.Stringer](v T, err error) (func() string, error) {
	if err != nil {
		return nil, err
	}
	return v.String, nil
}

// runText runs the driver and renders its output.
func (d sweepDriver) runText(ctx context.Context) (string, error) {
	text, err := d.run(ctx)
	if err != nil {
		return "", err
	}
	return text(), nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// simrefs returns the driver's trace refs × cache configurations,
// reading each cell's reference count from the store.
func (d sweepDriver) simrefs(s *tracestore.Store) (int64, error) {
	var n int64
	for _, w := range d.work {
		m, _, err := s.Meta(w.c.storeKey())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		n += m.Refs * int64(w.configs)
	}
	return n, nil
}

// fillSweepStore opens a fresh store, attaches it and runs every driver
// once, which generates every cell `-exp all` needs.
func fillSweepStore(ctx context.Context, env *childEnv, name string, drivers []sweepDriver) (*tracestore.Store, string, error) {
	s, dir, err := openStore(env, name)
	if err != nil {
		return nil, "", err
	}
	experiments.SetStore(s)
	for _, d := range drivers {
		if _, err := d.run(ctx); err != nil {
			return nil, "", fmt.Errorf("%s: %w", d.name, err)
		}
	}
	return s, dir, nil
}

func runSweepWarm(ctx context.Context, env *childEnv) (*childResult, error) {
	res := &childResult{Figures: map[string]float64{}}
	drivers := sweepDrivers()
	type state struct {
		s   *tracestore.Store
		dir string
	}
	st, err := repeatSetup(env, res, func(i int) (state, error) {
		s, dir, err := fillSweepStore(ctx, env, fmt.Sprintf("store-%d", i), drivers)
		return state{s, dir}, err
	}, func(st state) { os.RemoveAll(st.dir) })
	if err != nil {
		return nil, err
	}
	if env.opts.traced {
		entries, err := st.s.List()
		if err != nil {
			return nil, err
		}
		var cells []cell
		for _, e := range entries {
			cells = append(cells, cell{e.Meta.Benchmark, e.Meta.PEs, e.Meta.Sequential})
		}
		return tracedRun(ctx, env, res, walkInputs{cells: cells, store: st.s})
	}
	work := make([]int64, len(drivers))
	for i, d := range drivers {
		if work[i], err = d.simrefs(st.s); err != nil {
			return nil, err
		}
	}

	// One operation: every driver once, in seeded order, as
	// `experiments -exp all` runs them.
	var passes []float64
	var busy time.Duration
	var simrefs int64
	heap := startHeapSampler()
	end := env.deadline()
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		var passTime time.Duration
		for _, i := range env.shuffled(len(drivers)) {
			d := drivers[i]
			res.Attempted++
			runs := bench.EngineRuns()
			t0 := time.Now()
			text, err := d.runText(ctx)
			dur := time.Since(t0)
			switch {
			case err != nil:
				res.fail("%s: %v", d.name, err)
				continue
			case bench.EngineRuns() != runs:
				res.fail("%s: %d emulator runs over a warm store", d.name, bench.EngineRuns()-runs)
				continue
			case digest(text) != sweepDigests[d.name]:
				res.fail("%s: rendered output sha256 %s, pinned %s", d.name, digest(text), sweepDigests[d.name])
				continue
			}
			passTime += dur
			simrefs += work[i]
		}
		passes = append(passes, ms(passTime))
		busy += passTime
	}
	experiments.SetStore(nil)
	res.Figures["peak_heap_mb"] = heap.Stop()
	res.Figures["refs_per_s"] = float64(simrefs) / busy.Seconds()
	res.Figures["sweep_simrefs_per_s"] = res.Figures["refs_per_s"]
	res.Figures["op_p50_ms"] = quantile(passes, 0.5)
	res.Figures["op_tail_ms"] = quantile(passes, 0.9)
	res.Figures["ops"] = float64(len(passes))
	return res, nil
}
