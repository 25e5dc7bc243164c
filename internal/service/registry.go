package service

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// This file is the experiment registry: one descriptor per
// /v1/experiments/{name} endpoint, owning parameter parsing and
// canonicalization (the cache-key contract: two requests meaning the
// same computation must canonicalize to the same parameter string),
// the computation itself, and the CSV/text renderings derived from the
// cached JSON result.

// param is one canonical (name, value) parameter pair; the slice order
// is the canonical order.
type param struct{ name, value string }

// canonicalParams renders the cache key's parameter component.
func canonicalParams(ps []param) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.name + "=" + p.value
	}
	return strings.Join(parts, "&")
}

// paramMap renders the envelope's parameter map.
func paramMap(ps []param) map[string]string {
	m := make(map[string]string, len(ps))
	for _, p := range ps {
		m[p.name] = p.value
	}
	return m
}

// ParamDoc documents one request parameter for /v1/experiments and
// docs/API.md.
type ParamDoc struct {
	Name    string `json:"name"`
	Default string `json:"default"`
	Doc     string `json:"doc"`
}

// Experiment is one registry entry.
type Experiment struct {
	// Name is the endpoint path component.
	Name string `json:"name"`
	// Summary is the one-line description served by /v1/experiments.
	Summary string `json:"summary"`
	// Params documents the accepted parameters.
	Params []ParamDoc `json:"params"`

	// prepare validates and canonicalizes the request parameters and
	// binds the computation. The returned run closure is only invoked
	// on a cache miss, under the single-flight's context, on the
	// serving Server's Runner.
	prepare func(q url.Values) (ps []param, run runFunc, err error)
	// fresh returns a zero result pointer for decoding a cached
	// envelope back into the typed result.
	fresh func() any
	// csv renders the typed result as CSV rows.
	csv func(w *csv.Writer, v any) error
	// text renders the typed result as the CLI's human-readable table.
	text func(v any) string
}

// runFunc computes one experiment on a grid Runner.
type runFunc func(ctx context.Context, r *experiments.Runner) (any, error)

// Registry returns the experiment descriptors in serving order.
func Registry() []*Experiment { return registry }

// Lookup finds a registry entry by name.
func Lookup(name string) (*Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// --- parameter helpers ---

// intParam parses q[name] as an integer in [lo, hi], defaulting when
// absent.
func intParam(q url.Values, name string, def, lo, hi int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < lo || n > hi {
		return 0, fmt.Errorf("parameter %s=%q: need an integer in [%d, %d]", name, s, lo, hi)
	}
	return n, nil
}

// floatParam parses q[name] as a positive float, defaulting when
// absent.
func floatParam(q url.Values, name string, def float64) (float64, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f <= 0 {
		return 0, fmt.Errorf("parameter %s=%q: need a positive number", name, s)
	}
	return f, nil
}

// maxListLen caps the number of values a list-valued parameter may
// hold, so one request cannot ask for an unbounded number of grid
// cells. It admits every PE count (trace.MaxPEs of them) and is far
// above every default list (fig4's 8 sizes, fig2's at most 18 PE
// counts).
const maxListLen = trace.MaxPEs

// intListParam parses q[name] as a comma-separated ascending-sorted
// deduplicated integer list in [lo, hi] of at most maxListLen values,
// defaulting when absent.
func intListParam(q url.Values, name string, def []int, lo, hi int) ([]int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	seen := make(map[int]bool)
	var out []int
	n := 0
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if n++; n > maxListLen {
			return nil, fmt.Errorf("parameter %s: more than %d values", name, maxListLen)
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n < lo || n > hi {
			return nil, fmt.Errorf("parameter %s=%q: %q is not an integer in [%d, %d]", name, s, tok, lo, hi)
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("parameter %s=%q: empty list", name, s)
	}
	sort.Ints(out)
	return out, nil
}

// ints renders an int list canonically.
func ints(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// fs renders a float canonically (shortest round-trip form) — used
// for cache-key parameter values and CSV cells alike, so the two can
// never disagree.
func fs(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// is is the CSV cell rendering for integers.
func is(n int64) string { return strconv.FormatInt(n, 10) }

// --- result types owned by the service ---

// Table1Result is the storage-object classification in structured form
// (the CLI renders the same data as a table).
type Table1Result struct {
	Rows []Table1Row `json:"rows"`
}

// Table1Row is one storage-object class.
type Table1Row struct {
	Frame    string `json:"frame"`
	Area     string `json:"area"`
	WAM      bool   `json:"wam"`
	Locked   bool   `json:"locked"`
	Locality string `json:"locality"`
}

// BusResult pairs the analytic bus study with its discrete-event
// cross-check (the shape cmd/experiments -exp bus prints).
type BusResult struct {
	Study *experiments.BusStudy `json:"study"`
	DES   *experiments.BusDES   `json:"des"`
}

// AblationsResult bundles the ablation studies (the shape
// cmd/experiments -exp ablations prints).
type AblationsResult struct {
	Granularity *experiments.GranularitySweep `json:"granularity"`
	LineSize    *experiments.LineSizeSweep    `json:"line_size"`
	LockShare   []*experiments.LockShare      `json:"lock_share"`
	Assoc       *experiments.AssocSweep       `json:"assoc"`
}

// fig2Counts expands maxpes exactly the way cmd/experiments does —
// 1, 2, 4, 8, then steps of 4 up to maxpes (8 included even for
// smaller maxpes) — so ?format=text output matches the CLI's for the
// same parameters.
func fig2Counts(maxPEs int) []int {
	counts := []int{1, 2, 4, 8}
	for n := 12; n <= maxPEs; n += 4 {
		counts = append(counts, n)
	}
	return counts
}

var pesDoc = fmt.Sprintf("comma-separated PE counts, each in [1, %d]", trace.MaxPEs)

var registry = []*Experiment{
	{
		Name:    "table1",
		Summary: "storage-object characteristics (paper Table 1; architecture constants, no emulation)",
		prepare: func(q url.Values) ([]param, runFunc, error) {
			return nil, func(context.Context, *experiments.Runner) (any, error) {
				out := &Table1Result{}
				for _, o := range trace.ObjTypes() {
					loc := "Local"
					if o.Global() {
						loc = "Global"
					}
					out.Rows = append(out.Rows, Table1Row{
						Frame: o.String(), Area: o.Area().String(),
						WAM: o.WAM(), Locked: o.Locked(), Locality: loc,
					})
				}
				return out, nil
			}, nil
		},
		fresh: func() any { return new(Table1Result) },
		csv: func(w *csv.Writer, v any) error {
			t := v.(*Table1Result)
			w.Write([]string{"frame", "area", "wam", "lock", "locality"})
			for _, r := range t.Rows {
				w.Write([]string{r.Frame, r.Area, fmt.Sprint(r.WAM), fmt.Sprint(r.Locked), r.Locality})
			}
			return nil
		},
		text: func(any) string { return experiments.Table1() },
	},
	{
		Name:    "fig2",
		Summary: "RAP-WAM work/overhead vs number of PEs for deriv (paper Figure 2)",
		Params: []ParamDoc{
			{Name: "pes", Default: "", Doc: pesDoc + " (overrides maxpes)"},
			{Name: "maxpes", Default: "16", Doc: "largest PE count of the default 1,2,4,8,12,... sweep"},
		},
		prepare: func(q url.Values) ([]param, runFunc, error) {
			maxPEs, err := intParam(q, "maxpes", 16, 1, trace.MaxPEs)
			if err != nil {
				return nil, nil, err
			}
			counts, err := intListParam(q, "pes", fig2Counts(maxPEs), 1, trace.MaxPEs)
			if err != nil {
				return nil, nil, err
			}
			ps := []param{{"pes", ints(counts)}}
			return ps, func(ctx context.Context, r *experiments.Runner) (any, error) {
				return r.RunFigure2(ctx, counts)
			}, nil
		},
		fresh: func() any { return new(experiments.Figure2) },
		csv: func(w *csv.Writer, v any) error {
			f := v.(*experiments.Figure2)
			w.Write([]string{"pes", "work_pct_wam", "speedup", "wait_pct", "idle_pct", "goals_parallel"})
			for _, p := range f.Points {
				w.Write([]string{is(int64(p.PEs)), fs(p.WorkPct), fs(p.Speedup), fs(p.WaitPct), fs(p.IdlePct), is(p.GoalsParallel)})
			}
			return nil
		},
		text: func(v any) string { return v.(*experiments.Figure2).String() },
	},
	{
		Name:    "table2",
		Summary: "benchmark statistics at P processors (paper Table 2)",
		Params: []ParamDoc{
			{Name: "pes", Default: "8", Doc: fmt.Sprintf("PE count in [1, %d]", trace.MaxPEs)},
		},
		prepare: func(q url.Values) ([]param, runFunc, error) {
			pes, err := intParam(q, "pes", 8, 1, trace.MaxPEs)
			if err != nil {
				return nil, nil, err
			}
			ps := []param{{"pes", strconv.Itoa(pes)}}
			return ps, func(ctx context.Context, r *experiments.Runner) (any, error) {
				return r.RunTable2(ctx, pes)
			}, nil
		},
		fresh: func() any { return new(experiments.Table2) },
		csv: func(w *csv.Writer, v any) error {
			t := v.(*experiments.Table2)
			w.Write([]string{"benchmark", "instructions", "refs_rapwam", "refs_wam", "goals_parallel", "goals_stolen"})
			for _, r := range t.Rows {
				w.Write([]string{r.Name, is(r.Instructions), is(r.RefsRAPWAM), is(r.RefsWAM), is(r.GoalsParallel), is(r.GoalsStolen)})
			}
			return nil
		},
		text: func(v any) string { return v.(*experiments.Table2).String() },
	},
	{
		Name:    "table3",
		Summary: "fit of small benchmarks to the large-benchmark locality (paper Table 3)",
		prepare: func(q url.Values) ([]param, runFunc, error) {
			return nil, func(ctx context.Context, r *experiments.Runner) (any, error) {
				return r.RunTable3(ctx)
			}, nil
		},
		fresh: func() any { return new(experiments.Table3) },
		csv: func(w *csv.Writer, v any) error {
			t := v.(*experiments.Table3)
			header := []string{"cache_words", "etr", "sigma"}
			for _, s := range t.Small {
				header = append(header, "z_"+s)
			}
			header = append(header, "mean_abs_z")
			w.Write(header)
			for i, size := range t.CacheSizes {
				row := []string{is(int64(size)), fs(t.Etr[i]), fs(t.Sigma[i])}
				for _, z := range t.Z[i] {
					row = append(row, fs(z))
				}
				row = append(row, fs(t.MeanAbsZ[i]))
				w.Write(row)
			}
			return nil
		},
		text: func(v any) string { return v.(*experiments.Table3).String() },
	},
	{
		Name:    "fig4",
		Summary: "traffic ratio of the coherency schemes vs cache size (paper Figure 4)",
		Params: []ParamDoc{
			{Name: "pes", Default: "1,2,4,8", Doc: pesDoc},
			{Name: "sizes", Default: "64,128,256,512,1024,2048,4096,8192", Doc: "comma-separated cache sizes in words"},
		},
		prepare: func(q url.Values) ([]param, runFunc, error) {
			pes, err := intListParam(q, "pes", []int{1, 2, 4, 8}, 1, trace.MaxPEs)
			if err != nil {
				return nil, nil, err
			}
			sizes, err := intListParam(q, "sizes", []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}, 1, 1<<22)
			if err != nil {
				return nil, nil, err
			}
			ps := []param{{"pes", ints(pes)}, {"sizes", ints(sizes)}}
			return ps, func(ctx context.Context, r *experiments.Runner) (any, error) {
				return r.RunFigure4(ctx, pes, sizes)
			}, nil
		},
		fresh: func() any { return new(experiments.Figure4) },
		csv: func(w *csv.Writer, v any) error {
			f := v.(*experiments.Figure4)
			w.Write([]string{"protocol", "pes", "cache_words", "traffic_ratio"})
			for _, s := range f.Series {
				for i, size := range f.CacheSizes {
					w.Write([]string{s.Protocol.String(), is(int64(s.PEs)), is(int64(size)), fs(s.Ratio[i])})
				}
			}
			return nil
		},
		text: func(v any) string { return v.(*experiments.Figure4).String() },
	},
	{
		Name:    "mlips",
		Summary: "the 2 MLIPS feasibility calculation from measured statistics (paper section 3.3)",
		Params: []ParamDoc{
			{Name: "cache", Default: "256", Doc: "cache size in words for the capture ratio"},
			{Name: "target", Default: "2", Doc: "MLIPS performance target"},
		},
		prepare: func(q url.Values) ([]param, runFunc, error) {
			cacheWords, err := intParam(q, "cache", 256, 1, 1<<22)
			if err != nil {
				return nil, nil, err
			}
			target, err := floatParam(q, "target", 2)
			if err != nil {
				return nil, nil, err
			}
			ps := []param{{"cache", strconv.Itoa(cacheWords)}, {"target", fs(target)}}
			return ps, func(ctx context.Context, r *experiments.Runner) (any, error) {
				return r.RunMLIPS(ctx, cacheWords, target)
			}, nil
		},
		fresh: func() any { return new(experiments.MLIPS) },
		csv: func(w *csv.Writer, v any) error {
			m := v.(*experiments.MLIPS)
			w.Write([]string{"metric", "value"})
			rows := [][2]string{
				{"instr_per_li", fs(m.InstrPerLI)},
				{"refs_per_instr", fs(m.RefsPerInstr)},
				{"words_per_li", fs(m.WordsPerLI)},
				{"bytes_per_li", fs(m.BytesPerLI)},
				{"target_mlips", fs(m.TargetMLIPS)},
				{"raw_bandwidth_mbs", fs(m.RawBandwidthMBs)},
				{"capture_ratio", fs(m.CaptureRatio)},
				{"bus_bandwidth_mbs", fs(m.BusBandwidthMBs)},
			}
			for _, r := range rows {
				w.Write(r[:])
			}
			return nil
		},
		text: func(v any) string { return v.(*experiments.MLIPS).String() },
	},
	{
		Name:    "bus",
		Summary: "bus contention: analytic M/M/1 study plus the discrete-event cross-check",
		Params: []ParamDoc{
			{Name: "pes", Default: "8", Doc: fmt.Sprintf("PE count in [1, %d]", trace.MaxPEs)},
			{Name: "cache", Default: "256", Doc: "cache size in words"},
			{Name: "bw", Default: "4", Doc: "bus words per cycle for the DES cross-check"},
			{Name: "desbench", Default: "qsort", Doc: "benchmark replayed through the DES bus"},
		},
		prepare: func(q url.Values) ([]param, runFunc, error) {
			pes, err := intParam(q, "pes", 8, 1, trace.MaxPEs)
			if err != nil {
				return nil, nil, err
			}
			cacheWords, err := intParam(q, "cache", 256, 1, 1<<22)
			if err != nil {
				return nil, nil, err
			}
			bw, err := floatParam(q, "bw", 4)
			if err != nil {
				return nil, nil, err
			}
			desBench := q.Get("desbench")
			if desBench == "" {
				desBench = "qsort"
			}
			if _, ok := bench.ByName(desBench); !ok {
				return nil, nil, fmt.Errorf("parameter desbench=%q: unknown benchmark", desBench)
			}
			ps := []param{
				{"bw", fs(bw)}, {"cache", strconv.Itoa(cacheWords)},
				{"desbench", desBench}, {"pes", strconv.Itoa(pes)},
			}
			return ps, func(ctx context.Context, r *experiments.Runner) (any, error) {
				study, err := r.RunBusStudy(ctx, pes, cacheWords)
				if err != nil {
					return nil, err
				}
				des, err := r.RunBusDES(ctx, desBench, pes, cacheWords, bw)
				if err != nil {
					return nil, err
				}
				return &BusResult{Study: study, DES: des}, nil
			}, nil
		},
		fresh: func() any { return new(BusResult) },
		csv: func(w *csv.Writer, v any) error {
			b := v.(*BusResult)
			w.Write([]string{"section", "bus_words_per_cycle", "utilization", "efficiency", "mean_wait_cycles"})
			for i := range b.Study.Bandwidths {
				w.Write([]string{"analytic", fs(b.Study.Bandwidths[i]), fs(b.Study.Utilization[i]), fs(b.Study.Efficiency[i]), ""})
			}
			w.Write([]string{"des", fs(b.DES.BusWordsPerCycle), fs(b.DES.DES.Utilization), fs(b.DES.DES.Efficiency), fs(b.DES.DES.MeanWaitCycles)})
			w.Write([]string{"des_analytic", fs(b.DES.BusWordsPerCycle), fs(b.DES.Analytic.Utilization), fs(b.DES.Analytic.Efficiency), fs(b.DES.Analytic.MeanWaitCycles)})
			return nil
		},
		text: func(v any) string {
			b := v.(*BusResult)
			return b.Study.String() + "\n" + b.DES.String()
		},
	},
	{
		Name:    "ablations",
		Summary: "design-choice ablations: CGE granularity, line size, lock share, associativity",
		Params: []ParamDoc{
			{Name: "pes", Default: "8", Doc: fmt.Sprintf("PE count for the lock-share study, in [1, %d]", trace.MaxPEs)},
		},
		prepare: func(q url.Values) ([]param, runFunc, error) {
			pes, err := intParam(q, "pes", 8, 1, trace.MaxPEs)
			if err != nil {
				return nil, nil, err
			}
			ps := []param{{"pes", strconv.Itoa(pes)}}
			return ps, func(ctx context.Context, r *experiments.Runner) (any, error) {
				out := &AblationsResult{}
				var err error
				if out.Granularity, err = r.RunGranularitySweep(ctx, []int{0, 1, 2, 3, 4, 6}); err != nil {
					return nil, err
				}
				if out.LineSize, err = r.RunLineSizeSweep(ctx, "qsort", 4, 1024, []int{1, 2, 4, 8, 16}); err != nil {
					return nil, err
				}
				for _, b := range []string{"deriv", "qsort", "matrix"} {
					ls, err := r.RunLockShare(ctx, b, pes)
					if err != nil {
						return nil, err
					}
					out.LockShare = append(out.LockShare, ls)
				}
				if out.Assoc, err = r.RunAssocSweep(ctx, "qsort", 4, 1024, []int{1, 2, 4, 8, 0}); err != nil {
					return nil, err
				}
				return out, nil
			}, nil
		},
		fresh: func() any { return new(AblationsResult) },
		csv: func(w *csv.Writer, v any) error {
			a := v.(*AblationsResult)
			w.Write([]string{"study", "x", "value", "extra"})
			for _, p := range a.Granularity.Points {
				w.Write([]string{"granularity_speedup8", is(int64(p.Depth)), fs(p.Speedup8), is(p.GoalsParallel)})
			}
			for i, lw := range a.LineSize.LineWords {
				w.Write([]string{"line_size_traffic", is(int64(lw)), fs(a.LineSize.Ratio[i]), fs(a.LineSize.MissRatio[i])})
			}
			for _, ls := range a.LockShare {
				w.Write([]string{"lock_share", ls.Benchmark, fs(ls.Share()), is(ls.Total)})
			}
			for i, ways := range a.Assoc.Ways {
				w.Write([]string{"assoc_traffic", is(int64(ways)), fs(a.Assoc.Ratio[i]), ""})
			}
			return nil
		},
		text: func(v any) string {
			a := v.(*AblationsResult)
			var sb strings.Builder
			sb.WriteString(a.Granularity.String())
			sb.WriteByte('\n')
			sb.WriteString(a.LineSize.String())
			sb.WriteByte('\n')
			for _, ls := range a.LockShare {
				sb.WriteString(ls.String())
			}
			sb.WriteByte('\n')
			sb.WriteString(a.Assoc.String())
			return sb.String()
		},
	},
}

// renderCSV runs an entry's CSV renderer over a decoded result.
func renderCSV(e *Experiment, v any, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := e.csv(cw, v); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
