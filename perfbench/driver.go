package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// childCommand is the hidden first argument that turns the binary into
// a workload child.
const childCommand = "child"

// childTimeout bounds one child process; a run must end within 180 s.
const childTimeout = 170 * time.Second

// buildDir holds everything a run leaves behind (the binary, the Go
// build cache, scratch stores, span dumps); it is .gitignored.
const buildDir = ".bench_build"

// runOptions are the benchmark's command-line arguments, shared by the
// driver and the child it spawns.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
}

func parseRunOptions(name string, args []string, extra func(fs *flag.FlagSet)) (runOptions, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed (the same seed gives the same inputs)")
	seconds := fs.Float64("seconds", 10, "measurement time per run, in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if extra != nil {
		extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return runOptions{}, err
	}
	if fs.NArg() > 0 {
		return runOptions{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := lookupWorkload(*workload); !ok {
		return runOptions{}, fmt.Errorf("--workload %q: want one of %s", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *seconds > 120 {
		return runOptions{}, fmt.Errorf("--seconds %v: want (0, 120]", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return runOptions{}, fmt.Errorf("--trace %d: want 0 or 1", *traceFlag)
	}
	return runOptions{workload: *workload, seed: *seed, seconds: *seconds, traced: *traceFlag == 1}, nil
}

func (o runOptions) childArgs(dir string) []string {
	t := "0"
	if o.traced {
		t = "1"
	}
	return []string{childCommand,
		"--workload", o.workload,
		"--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", t,
		"--dir", dir,
	}
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkSpec is the subset of BENCHMARK.json the driver reads: the
// metric names and units it must print. Keeping them in the checked-in
// file (and nowhere else) is what keeps the output and the spec from
// drifting apart.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return spec, fmt.Errorf("%s: no metrics listed", path)
	}
	return spec, nil
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the contract's last output line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full result record printed on the line before the
// summary: who measured what, where, and every figure the child
// reported (including workload-specific names such as hit_p99_ms
// beside the generic end-to-end metrics).
type record struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Traced      bool               `json:"traced"`
	Host        hostInfo           `json:"host"`
	ProcStartS  float64            `json:"process_start_s"`
	SetupsS     []float64          `json:"setups_s"`
	FailedRatio float64            `json:"failed_ratio"`
	Failures    []string           `json:"failures,omitempty"`
	Figures     map[string]float64 `json:"figures"`
}

// driverMain runs one workload in a child process and prints the
// result record and the summary line to out.
func driverMain(args []string, out io.Writer) error {
	opts, err := parseRunOptions("perfbench", args, nil)
	if err != nil {
		return err
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	// The child reads repository inputs (the golden trace digests)
	// relative to the checkout root; fail before spawning anything when
	// they are absent.
	if _, err := os.Stat(goldenPath); err != nil {
		return fmt.Errorf("not run from a repository checkout: %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	res, procStart, runErr := spawnChild(opts, work)
	rec := record{
		Workload: opts.workload, Seed: opts.seed, Seconds: opts.seconds, Traced: opts.traced,
		Host: fingerprint(), ProcStartS: procStart,
	}
	sum := summary{Metrics: map[string]metricValue{}}
	if runErr != nil {
		// A crashed or hung child is a failed run, not a driver crash.
		sum.Attempted, sum.Failed = 1, 1
		rec.Failures = []string{runErr.Error()}
	} else {
		rec.SetupsS, rec.Failures, rec.Figures = res.SetupsS, res.Failures, res.Figures
		sum.Attempted, sum.Failed = res.Attempted, res.Failed
		sum.Correct = res.Failed == 0 && res.Attempted > 0
		want := spec.PerLayer
		if !opts.traced {
			want = spec.EndToEnd
			rec.Figures["setup_s"] = procStart + median(res.SetupsS)
		}
		for _, m := range want {
			v, ok := rec.Figures[m.Name]
			if !ok {
				sum.Correct = false
				rec.Failures = append(rec.Failures, "metric "+m.Name+" not measured")
				continue
			}
			sum.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	if sum.Attempted > 0 {
		rec.FailedRatio = float64(sum.Failed) / float64(sum.Attempted)
	}
	printReport(out, rec, sum, spec)
	return nil
}

// spawnChild runs the workload in a fresh process and returns its
// result plus the process start time: from spawning the child to its
// first line of output, which it prints before any set-up work.
func spawnChild(opts runOptions, work string) (*childResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, opts.childArgs(work)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	var procStart float64
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if procStart == 0 && bytes.Equal(line, []byte(readyLine)) {
			procStart = time.Since(t0).Seconds()
			continue
		}
		last = append(last[:0], line...)
	}
	waitErr := cmd.Wait()
	var res childResult
	parseErr := json.Unmarshal(last, &res)
	switch {
	case ctx.Err() != nil:
		return nil, procStart, fmt.Errorf("child exceeded %v and was killed", childTimeout)
	case waitErr != nil:
		return nil, procStart, fmt.Errorf("child failed: %v", waitErr)
	case parseErr != nil:
		return nil, procStart, fmt.Errorf("child printed no result: %v", parseErr)
	case procStart == 0:
		return nil, procStart, errors.New("child never reported ready")
	}
	return &res, procStart, nil
}

// printReport writes the human-readable table, the result record and
// the summary line (last).
func printReport(out io.Writer, rec record, sum summary, spec benchmarkSpec) {
	mode := "end-to-end"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g (%s) on %s, %d cores, %s, GOMAXPROCS=%d, source %s\n",
		rec.Workload, rec.Seed, rec.Seconds, mode, rec.Host.CPU, rec.Host.Cores, rec.Host.GoVersion,
		rec.Host.GOMAXPROCS, rec.Host.Commit)
	names := make([]string, 0, len(rec.Figures))
	for k := range rec.Figures {
		names = append(names, k)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, k := range names {
		u := units[k]
		if u == "" {
			u = figureUnit(k)
		}
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", k, rec.Figures[k], u)
	}
	fmt.Fprintf(out, "  %-32s %14.6g ratio (%d of %d operations failed)\n", "failed_ratio", rec.FailedRatio, sum.Failed, sum.Attempted)
	for _, f := range rec.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	line, _ := json.Marshal(rec)
	fmt.Fprintf(out, "record %s\n", line)
	line, _ = json.Marshal(sum)
	fmt.Fprintf(out, "%s\n", line)
}

// figureUnit names the unit of a reported figure that is not a
// BENCHMARK.json metric, from its name's suffix.
func figureUnit(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_per_s", "1/s"}, {"_ms", "ms"}, {"_us", "us"}, {"_s", "s"}, {"_mb", "MB"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}
