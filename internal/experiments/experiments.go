// Package experiments regenerates every table and figure of the
// paper's evaluation:
//
//	Table 1  — storage-object characteristics (architecture constants)
//	Figure 2 — RAP-WAM work/overhead vs number of PEs for deriv
//	Table 2  — benchmark statistics at 8 PEs
//	Table 3  — fit of small benchmarks to the large-benchmark locality
//	Figure 4 — traffic ratio of the coherency schemes vs cache size
//	§3.3     — traffic capture, the 2 MLIPS feasibility calculation and
//	           the bus-contention estimate
//
// Each driver returns structured data plus a String rendering, so both
// the CLI and the test/bench suites can consume them.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/busmodel"
	"repro/internal/cache"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Table1 renders the storage-object classification (paper Table 1).
func Table1() string {
	t := stats.NewTable("Table 1: Characteristics of RAP-WAM Storage Objects",
		"frame type", "area", "WAM?", "lock", "locality")
	for _, o := range trace.ObjTypes() {
		wam, lock, loc := "no", "no", "Local"
		if o.WAM() {
			wam = "yes"
		}
		if o.Locked() {
			lock = "yes"
		}
		if o.Global() {
			loc = "Global"
		}
		t.AddRow(o.String(), o.Area().String(), wam, lock, loc)
	}
	return t.String()
}

// Fig2Point is one processor count of the Figure 2 sweep.
type Fig2Point struct {
	PEs int
	// WorkPct is total RAP-WAM work references as % of WAM references.
	WorkPct float64
	// Speedup is WAM cycles / RAP-WAM cycles.
	Speedup float64
	// WaitPct / IdlePct are cycles spent waiting/idle as % of total
	// machine cycles (PEs × elapsed).
	WaitPct, IdlePct float64
	// GoalsParallel is the number of goals run through the parallel
	// machinery.
	GoalsParallel int64
}

// Figure2 reproduces the deriv overhead study: work references of
// RAP-WAM (as a percentage of sequential WAM work) against the number
// of processors.
type Figure2 struct {
	Benchmark string
	WAMRefs   int64
	Points    []Fig2Point
}

// RunFigure2 sweeps deriv over the given PE counts (the paper plots 1
// to 40). Per-cell statistics come from the run sidecars in the
// Runner's store, so over a warm store the sweep runs no emulation.
func (r *Runner) RunFigure2(ctx context.Context, peCounts []int) (*Figure2, error) {
	b := bench.Deriv()
	seq, _, err := r.runStats(ctx, b, 1, true)
	if err != nil {
		return nil, err
	}
	wamRefs := seq.TotalWorkRefs()
	wamCycles := seq.Cycles
	out := &Figure2{Benchmark: b.Name, WAMRefs: wamRefs}
	for _, pes := range peCounts {
		st, _, err := r.runStats(ctx, b, pes, false)
		if err != nil {
			return nil, err
		}
		var waits, idles int64
		for i := range st.WaitCycles {
			waits += st.WaitCycles[i]
			idles += st.IdleCycles[i]
		}
		machineCycles := st.Cycles * int64(pes)
		out.Points = append(out.Points, Fig2Point{
			PEs:           pes,
			WorkPct:       100 * float64(st.TotalWorkRefs()) / float64(wamRefs),
			Speedup:       float64(wamCycles) / float64(st.Cycles),
			WaitPct:       100 * float64(waits) / float64(machineCycles),
			IdlePct:       100 * float64(idles) / float64(machineCycles),
			GoalsParallel: st.GoalsParallel,
		})
	}
	return out, nil
}

// String renders the sweep.
func (f *Figure2) String() string {
	t := stats.NewTable(
		fmt.Sprintf("Figure 2: RAP-WAM overheads for %q (WAM work = %d refs = 100%%)", f.Benchmark, f.WAMRefs),
		"#PEs", "work %WAM", "speedup", "wait%", "idle%", "goals//")
	for _, p := range f.Points {
		t.AddRow(p.PEs, p.WorkPct, p.Speedup, p.WaitPct, p.IdlePct, p.GoalsParallel)
	}
	return t.String()
}

// Table2Row is one benchmark's statistics (paper Table 2).
type Table2Row struct {
	Name          string
	Instructions  int64 // RAP-WAM instructions at P PEs
	RefsRAPWAM    int64
	RefsWAM       int64
	GoalsParallel int64
	GoalsStolen   int64
}

// Table2 is the benchmark statistics table.
type Table2 struct {
	PEs  int
	Rows []Table2Row
}

// RunTable2 gathers the paper's Table 2 at the given PE count (8 in the
// paper), serving per-cell statistics from the Runner's store.
func (r *Runner) RunTable2(ctx context.Context, pes int) (*Table2, error) {
	out := &Table2{PEs: pes}
	for _, b := range bench.Paper() {
		seq, _, err := r.runStats(ctx, b, 1, true)
		if err != nil {
			return nil, err
		}
		par, _, err := r.runStats(ctx, b, pes, false)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Table2Row{
			Name:          b.Name,
			Instructions:  par.TotalInstructions(),
			RefsRAPWAM:    par.TotalWorkRefs(),
			RefsWAM:       seq.TotalWorkRefs(),
			GoalsParallel: par.GoalsParallel,
			GoalsStolen:   par.GoalsStolen,
		})
	}
	return out, nil
}

// String renders the table.
func (t2 *Table2) String() string {
	t := stats.NewTable(
		fmt.Sprintf("Table 2: Statistics for the Benchmarks Used (%d processors)", t2.PEs),
		"parameter", "deriv", "tak", "qsort", "matrix")
	get := func(f func(Table2Row) any) []any {
		out := []any{""}
		for _, r := range t2.Rows {
			out = append(out, f(r))
		}
		return out
	}
	rows := []struct {
		label string
		f     func(Table2Row) any
	}{
		{"Instructions executed", func(r Table2Row) any { return r.Instructions }},
		{"References (RAP-WAM)", func(r Table2Row) any { return r.RefsRAPWAM }},
		{"References (WAM)", func(r Table2Row) any { return r.RefsWAM }},
		{"Goals actually in //", func(r Table2Row) any { return r.GoalsParallel }},
		{"  of which stolen", func(r Table2Row) any { return r.GoalsStolen }},
	}
	for _, row := range rows {
		cells := get(row.f)
		cells[0] = row.label
		t.AddRow(cells...)
	}
	return t.String()
}

// Table3 reproduces the locality-fit study: traffic ratios of the
// large sequential benchmarks define the reference mean and standard
// deviation; the small benchmarks' z-scores measure how typically they
// exercise the sequential storage model.
type Table3 struct {
	CacheSizes []int
	// Etr and Sigma per cache size (large-benchmark statistics).
	Etr, Sigma []float64
	// Z[sizeIdx][benchIdx] are the small benchmarks' z-scores.
	Z [][]float64
	// MeanAbsZ per cache size (the paper reports the mean fit).
	MeanAbsZ []float64
	Small    []string
	Large    []string
}

// RunTable3 computes the fit at the paper's 512 and 1024 word cache
// sizes (sequential runs, copyback cache, 4-word lines). All benchmarks
// run as independent grid cells; each benchmark's trace is walked once,
// with both cache sizes simulated concurrently in that single pass.
func (r *Runner) RunTable3(ctx context.Context) (*Table3, error) {
	sizes := []int{512, 1024}
	out := &Table3{CacheSizes: sizes}

	larges := bench.Large()
	smalls := []bench.Benchmark{bench.Deriv(), bench.Tak(), bench.Qsort()}
	for _, b := range larges {
		out.Large = append(out.Large, b.Name)
	}
	for _, b := range smalls {
		out.Small = append(out.Small, b.Name)
	}
	cfgs := make([]cache.Config, len(sizes))
	for i, size := range sizes {
		cfgs[i] = cache.Config{
			PEs: 1, SizeWords: size, LineWords: 4,
			Protocol:      cache.Copyback,
			WriteAllocate: cache.PaperWriteAllocate(cache.Copyback, size),
		}
	}
	all := append(append([]bench.Benchmark(nil), larges...), smalls...)
	ratios := make([][]float64, len(all)) // [benchIdx][sizeIdx]
	err := r.runGrid(ctx, len(all), func(i int) error {
		st, err := r.simulateAll(ctx, all[i], 1, true, cfgs)
		if err != nil {
			return err
		}
		ratios[i] = make([]float64, len(st))
		for j, s := range st {
			ratios[i][j] = s.TrafficRatio()
		}
		r.progress("table3: %s: %d sizes in one pass", all[i].Name, len(st))
		return nil
	})
	if err != nil {
		return nil, err
	}

	for i := range sizes {
		var largeRatios []float64
		for benchIdx := range larges {
			largeRatios = append(largeRatios, ratios[benchIdx][i])
		}
		out.Etr = append(out.Etr, stats.Mean(largeRatios))
		out.Sigma = append(out.Sigma, stats.StdDev(largeRatios))
	}
	out.Z = make([][]float64, len(sizes))
	for smallIdx := range smalls {
		for i := range sizes {
			ratio := ratios[len(larges)+smallIdx][i]
			out.Z[i] = append(out.Z[i], stats.ZScore(ratio, out.Etr[i], out.Sigma[i]))
		}
	}
	for i := range sizes {
		var abs []float64
		for _, z := range out.Z[i] {
			if z < 0 {
				z = -z
			}
			abs = append(abs, z)
		}
		out.MeanAbsZ = append(out.MeanAbsZ, stats.Mean(abs))
	}
	return out, nil
}

// String renders the fit table.
func (t3 *Table3) String() string {
	headers := append([]string{"cache (words)", "Etr", "sigma"}, t3.Small...)
	headers = append(headers, "mean |z|")
	t := stats.NewTable(
		fmt.Sprintf("Table 3: Fit of Small Benchmarks to Large Benchmarks (large set: %s)",
			strings.Join(t3.Large, ", ")),
		headers...)
	for i, size := range t3.CacheSizes {
		cells := []any{size, t3.Etr[i], t3.Sigma[i]}
		for _, z := range t3.Z[i] {
			cells = append(cells, z)
		}
		cells = append(cells, t3.MeanAbsZ[i])
		t.AddRow(cells...)
	}
	return t.String()
}

// Fig4Series is one protocol's traffic-ratio curve for one PE count.
type Fig4Series struct {
	Protocol cache.Protocol
	PEs      int
	// Ratio[i] corresponds to Figure4.CacheSizes[i]: the mean traffic
	// ratio over the four benchmarks.
	Ratio []float64
}

// Figure4 is the coherency-scheme traffic comparison.
type Figure4 struct {
	CacheSizes []int
	PECounts   []int
	Protocols  []cache.Protocol
	Series     []Fig4Series
	// PerBench[protocol][pes][size][bench] retains the unaveraged data.
	Benchmarks []string
}

// RunFigure4 sweeps cache size × protocol × PE count, averaging the
// traffic ratio over the four paper benchmarks, with the paper's
// write-allocate policy selections.
//
// The sweep runs on the experiment grid: each benchmark is traced once
// per PE count (stored), every protocol × size configuration for that
// trace is simulated concurrently in a single pass over it, and the
// independent (PE count, benchmark) cells execute on the bounded worker
// pool. The numbers are identical to the sequential formulation — only
// the wall clock changes.
func (r *Runner) RunFigure4(ctx context.Context, peCounts, sizes []int) (*Figure4, error) {
	protocols := []cache.Protocol{cache.WriteInBroadcast, cache.Hybrid, cache.WriteThrough}
	out := &Figure4{CacheSizes: sizes, PECounts: peCounts, Protocols: protocols}

	benches := bench.Paper()
	for _, b := range benches {
		out.Benchmarks = append(out.Benchmarks, b.Name)
	}
	// One grid cell per (PE count, benchmark): trace once, simulate all
	// protocol × size configurations against it in one pass. Cells write
	// only their own cellStats slot.
	cfgs := func(pes int) []cache.Config {
		cs := make([]cache.Config, 0, len(protocols)*len(sizes))
		for _, proto := range protocols {
			for _, size := range sizes {
				cs = append(cs, cache.Config{
					PEs: pes, SizeWords: size, LineWords: 4,
					Protocol:      proto,
					WriteAllocate: cache.PaperWriteAllocate(proto, size),
				})
			}
		}
		return cs
	}
	cellStats := make([][][]cache.Stats, len(peCounts)) // [pesIdx][benchIdx][cfgIdx]
	for i := range cellStats {
		cellStats[i] = make([][]cache.Stats, len(benches))
	}
	err := r.runGrid(ctx, len(peCounts)*len(benches), func(i int) error {
		pesIdx, benchIdx := i/len(benches), i%len(benches)
		pes := peCounts[pesIdx]
		st, err := r.simulateAll(ctx, benches[benchIdx], pes, pes == 1, cfgs(pes))
		if err != nil {
			return err
		}
		cellStats[pesIdx][benchIdx] = st
		r.progress("fig4: %s @ %d PEs: %d configs in one pass",
			benches[benchIdx].Name, pes, len(st))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pesIdx, pes := range peCounts {
		for protoIdx, proto := range protocols {
			s := Fig4Series{Protocol: proto, PEs: pes}
			for sizeIdx := range sizes {
				var ratios []float64
				for benchIdx := range benches {
					st := cellStats[pesIdx][benchIdx][protoIdx*len(sizes)+sizeIdx]
					ratios = append(ratios, st.TrafficRatio())
				}
				s.Ratio = append(s.Ratio, stats.Mean(ratios))
			}
			out.Series = append(out.Series, s)
		}
	}
	return out, nil
}

// Ratio returns the series for a protocol and PE count (nil if absent).
func (f *Figure4) Ratio(p cache.Protocol, pes int) []float64 {
	for _, s := range f.Series {
		if s.Protocol == p && s.PEs == pes {
			return s.Ratio
		}
	}
	return nil
}

// String renders one block per protocol, sizes as columns.
func (f *Figure4) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: Traffic of Coherency Schemes (mean traffic ratio over ")
	b.WriteString(strings.Join(f.Benchmarks, ", "))
	b.WriteString(")\n\n")
	for _, proto := range f.Protocols {
		headers := []string{"#PEs"}
		for _, s := range f.CacheSizes {
			headers = append(headers, fmt.Sprintf("%dw", s))
		}
		t := stats.NewTable(proto.String(), headers...)
		for _, pes := range f.PECounts {
			cells := []any{pes}
			for _, r := range f.Ratio(proto, pes) {
				cells = append(cells, r)
			}
			t.AddRow(cells...)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// MLIPS is the back-of-the-envelope feasibility calculation of §3.3,
// re-derived from measured statistics rather than the paper's round
// numbers.
type MLIPS struct {
	// InstrPerLI is measured instructions per inference (the paper
	// assumes 15 for large programs).
	InstrPerLI float64
	// RefsPerInstr is measured data references per instruction (the
	// paper assumes 3).
	RefsPerInstr float64
	// WordsPerLI = InstrPerLI × RefsPerInstr (paper: 45).
	WordsPerLI float64
	// BytesPerLI at 4-byte words (paper: 180).
	BytesPerLI float64
	// TargetMLIPS is the performance target (paper: 2).
	TargetMLIPS float64
	// RawBandwidthMBs is the memory bandwidth needed with no caches
	// (paper: 360 MB/s).
	RawBandwidthMBs float64
	// CaptureRatio is the fraction of traffic absorbed by the caches
	// (paper: 0.7 for ≥128-word write-in broadcast caches at 8 PEs).
	CaptureRatio float64
	// BusBandwidthMBs is the bus bandwidth actually required
	// (paper: 108 MB/s).
	BusBandwidthMBs float64
}

// RunMLIPS measures instructions/inference and references/instruction
// over the benchmark suite, takes the 8-PE write-in broadcast capture
// ratio at the given cache size, and prices the paper's 2 MLIPS target.
func (r *Runner) RunMLIPS(ctx context.Context, cacheWords int, targetMLIPS float64) (*MLIPS, error) {
	// Sequential instruction/reference statistics: one grid cell per
	// benchmark, summed after the pool drains.
	seqBenches := append(bench.Paper(), bench.Large()...)
	type seqStat struct{ instrs, refs, calls int64 }
	seqStats := make([]seqStat, len(seqBenches))
	err := r.runGrid(ctx, len(seqBenches), func(i int) error {
		st, _, err := r.runStats(ctx, seqBenches[i], 1, true)
		if err != nil {
			return err
		}
		seqStats[i] = seqStat{
			instrs: st.TotalInstructions(),
			refs:   st.TotalWorkRefs(),
			calls:  st.Inferences,
		}
		r.progress("mlips: measured %s", seqBenches[i].Name)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var instrs, refs, calls int64
	for _, s := range seqStats {
		instrs += s.instrs
		refs += s.refs
		calls += s.calls
	}
	m := &MLIPS{TargetMLIPS: targetMLIPS}
	m.InstrPerLI = float64(instrs) / float64(calls)
	m.RefsPerInstr = float64(refs) / float64(instrs)
	m.WordsPerLI = m.InstrPerLI * m.RefsPerInstr
	m.BytesPerLI = 4 * m.WordsPerLI
	m.RawBandwidthMBs = targetMLIPS * m.BytesPerLI

	// Capture ratio: mean over the paper benchmarks at 8 PEs with
	// write-in broadcast caches (stored traces, grid cells).
	ratios, err := r.protocolRatios(ctx, bench.Paper(), 8, cacheWords, "mlips")
	if err != nil {
		return nil, err
	}
	traffic := stats.Mean(ratios)
	m.CaptureRatio = 1 - traffic
	m.BusBandwidthMBs = m.RawBandwidthMBs * traffic
	return m, nil
}

// String renders the calculation.
func (m *MLIPS) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Back-of-the-envelope MLIPS feasibility (paper section 3.3)\n")
	fmt.Fprintf(&b, "  instructions / inference : %6.1f   (paper assumes 15)\n", m.InstrPerLI)
	fmt.Fprintf(&b, "  references / instruction : %6.2f   (paper assumes 3)\n", m.RefsPerInstr)
	fmt.Fprintf(&b, "  words / inference        : %6.1f   (paper: 45)\n", m.WordsPerLI)
	fmt.Fprintf(&b, "  bytes / inference        : %6.1f   (paper: 180)\n", m.BytesPerLI)
	fmt.Fprintf(&b, "  target                   : %6.2f MLIPS\n", m.TargetMLIPS)
	fmt.Fprintf(&b, "  raw bandwidth needed     : %6.1f MB/s (paper: 360)\n", m.RawBandwidthMBs)
	fmt.Fprintf(&b, "  cache capture ratio      : %6.2f   (paper: 0.70)\n", m.CaptureRatio)
	fmt.Fprintf(&b, "  bus bandwidth needed     : %6.1f MB/s (paper: 108)\n", m.BusBandwidthMBs)
	return b.String()
}

// BusStudy tabulates shared-memory efficiency against bus bandwidth
// using the analytic M/M/1 model, fed with the 8-PE traffic ratio.
type BusStudy struct {
	PEs          int
	TrafficRatio float64
	Bandwidths   []float64 // bus words per processor cycle
	Efficiency   []float64
	Utilization  []float64
}

// RunBusStudy evaluates efficiency for a range of bus speeds. The
// per-benchmark traffic ratios come from stored traces simulated on
// the experiment grid.
func (r *Runner) RunBusStudy(ctx context.Context, pes, cacheWords int) (*BusStudy, error) {
	ratios, err := r.protocolRatios(ctx, bench.Paper(), pes, cacheWords, "bus")
	if err != nil {
		return nil, err
	}
	out := &BusStudy{PEs: pes, TrafficRatio: stats.Mean(ratios)}
	for _, bw := range []float64{0.5, 1, 2, 4, 8, 16} {
		res, err := busmodel.Analytic(busmodel.Params{
			PEs:              pes,
			RefsPerCycle:     1,
			TrafficRatio:     out.TrafficRatio,
			BusWordsPerCycle: bw,
		})
		if err != nil {
			return nil, err
		}
		out.Bandwidths = append(out.Bandwidths, bw)
		eff := res.Efficiency
		if res.Saturated {
			eff = 0
		}
		out.Efficiency = append(out.Efficiency, eff)
		out.Utilization = append(out.Utilization, res.Utilization)
	}
	return out, nil
}

// String renders the study.
func (bs *BusStudy) String() string {
	t := stats.NewTable(
		fmt.Sprintf("Bus contention (M/M/1): %d PEs, traffic ratio %.3f", bs.PEs, bs.TrafficRatio),
		"bus words/cycle", "utilization", "efficiency")
	for i := range bs.Bandwidths {
		t.AddRow(bs.Bandwidths[i], bs.Utilization[i], bs.Efficiency[i])
	}
	return t.String()
}
