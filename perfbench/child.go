package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// readyLine is the child's first output line, printed before any
// set-up work; the driver times process start up to it.
const readyLine = "perfbench-child-ready"

// maxFailures bounds how many failure descriptions a child reports.
const maxFailures = 8

// childResult is what a child reports to the driver (its last line).
type childResult struct {
	// SetupsS are the in-process set-up durations, one per repetition.
	SetupsS []float64 `json:"setups_s"`
	// Attempted / Failed count the workload's operations; an operation
	// with a wrong output counts as failed.
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Figures holds every measured value by name: the BENCHMARK.json
	// metrics plus workload-specific detail for the result record.
	Figures map[string]float64 `json:"figures"`
}

func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload.
type workload struct {
	name string
	// run performs the workload's set-up and measurement (untraced) or
	// its traced layer walk.
	run func(ctx context.Context, env *childEnv) (*childResult, error)
}

var workloads = []workload{
	{name: "gen-cold", run: runGenCold},
	{name: "sweep-warm", run: runSweepWarm},
	{name: "serve-mixed", run: runServeMixed},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// childEnv is a child's view of its run.
type childEnv struct {
	opts runOptions
	// dir is a scratch directory the child owns (the driver removes it).
	dir string
	rng *rand.Rand
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

func childMain(args []string) int {
	var dir string
	opts, err := parseRunOptions("perfbench child", args, func(fs *flag.FlagSet) {
		fs.StringVar(&dir, "dir", "", "scratch directory")
	})
	if err != nil || dir == "" {
		fmt.Fprintln(os.Stderr, "perfbench child: bad arguments:", err)
		return 2
	}
	fmt.Println(readyLine)
	w, _ := lookupWorkload(opts.workload)
	env := &childEnv{opts: opts, dir: dir, rng: rand.New(rand.NewPCG(opts.seed, 0x72617077616d))}
	res, err := w.run(context.Background(), env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// workDir returns the child's scratch directory for name, created.
func workDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	return dir, os.MkdirAll(dir, 0o755)
}

// deadline returns the end of the measurement window starting now.
func (e *childEnv) deadline() time.Time {
	return time.Now().Add(time.Duration(e.opts.seconds * float64(time.Second)))
}

// shuffled returns a seeded permutation of 0..n-1.
func (e *childEnv) shuffled(n int) []int { return e.rng.Perm(n) }

// repeatSetup runs setup setupRepeats times (once in a traced run,
// which reports no setup_s), recording each duration, and returns the
// state of the last one. Earlier states are released with drop.
func repeatSetup[T any](env *childEnv, res *childResult, setup func(i int) (T, error), drop func(T)) (T, error) {
	repeats := setupRepeats
	if env.opts.traced {
		repeats = 1
	}
	var st T
	for i := 0; i < repeats; i++ {
		if i > 0 && drop != nil {
			drop(st)
		}
		t0 := time.Now()
		s, err := setup(i)
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		res.SetupsS = append(res.SetupsS, time.Since(t0).Seconds())
		st = s
	}
	return st, nil
}

// --- statistics ---

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- Go runtime ---

// heapSampler records the peak live heap between start and Stop: the
// heap the collector marked live at each cycle (runtime/metrics),
// sampled every millisecond. Unlike the heap's current size it does not
// swing with where a sample falls in the GC cycle.
//
// The start collects the set-up's garbage and moves the sync.Pool
// contents the set-up left (engine memory slabs) to the pools' victim
// caches, where the measurement can still reuse them; the next cycle
// drops what it did not reuse, and only cycles from then on count.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func readLive(s []metrics.Sample) (live, cycles uint64) {
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	_, start := readLive(s)
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			// The cycle count moves when a cycle starts and the live
			// heap when it ends: two cycles on, the live figure is one
			// the measurement's own cycle marked.
			if live, cycles := readLive(s); cycles >= start+2 && live > h.peak {
				h.peak = live
			}
			select {
			case <-h.stop:
				// A window too short for cycles of its own gets them.
				if h.peak == 0 {
					runtime.GC()
					runtime.GC()
					h.peak, _ = readLive(s)
				}
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB (10^6 bytes).
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}

// gcCounters is a snapshot of the collector's totals.
type gcCounters struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcCounters{cycles: m.NumGC, pauseNs: m.PauseTotalNs}
}
