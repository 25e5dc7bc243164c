package main

// gen-cold: experiments.GenerateTraces into an empty store. The
// compile, emulate, RWT2 encode and store-write layers do nearly all
// the work; no cache replay runs.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// goldenPath holds the pinned RWT2 digests of the 36 golden cells.
const goldenPath = "internal/bench/testdata/golden_traces.json"

// cell is one (benchmark, PEs, sequential) engine run.
type cell struct {
	name string
	pes  int
	seq  bool
}

// key names the cell the way golden_traces.json does.
func (c cell) key() string {
	mode := "par"
	if c.seq {
		mode = "seq"
	}
	return fmt.Sprintf("%s/%dpe/%s", c.name, c.pes, mode)
}

func (c cell) storeKey() tracestore.Key { return bench.StoreKey(c.name, c.pes, c.seq) }

func (c cell) benchmark() (bench.Benchmark, error) {
	b, ok := bench.ByName(c.name)
	if !ok {
		return b, fmt.Errorf("unknown benchmark %q", c.name)
	}
	return b, nil
}

// sizedCells are the longer-running variants at the default layout.
// They follow the grid's convention: sequential at 1 PE, parallel
// otherwise.
var sizedCells = []cell{
	{"qsort-20000", 8, false},
	{"matrix-32", 1, true}, {"matrix-32", 8, false},
	{"nrev-600", 1, true}, {"nrev-600", 8, false},
}

// genCells returns the 36 golden cells (every fixed benchmark at 1 and
// 8 PEs, parallel and sequential) and the sized cells.
func genCells() []cell {
	var out []cell
	for _, name := range bench.Names() {
		for _, pes := range []int{1, 8} {
			for _, seq := range []bool{false, true} {
				out = append(out, cell{name, pes, seq})
			}
		}
	}
	return append(out, sizedCells...)
}

// genTargets returns the cells as GenerateTraces targets: the long
// sized cells first, so the grid's workers stay busy to the end, then
// the golden cells in seeded order. A seeded position for the long
// cells moved the pass time by tens of percent from seed to seed.
func genTargets(env *childEnv, cells []cell) ([]experiments.TraceTarget, error) {
	golden := len(cells) - len(sizedCells)
	order := make([]int, 0, len(cells))
	for i := range sizedCells {
		order = append(order, golden+i)
	}
	order = append(order, env.shuffled(golden)...)
	out := make([]experiments.TraceTarget, len(order))
	for i, j := range order {
		c := cells[j]
		b, err := c.benchmark()
		if err != nil {
			return nil, err
		}
		out[i] = experiments.TraceTarget{Benchmark: b, PEs: c.pes, Sequential: c.seq}
	}
	return out, nil
}

// genDigests returns the expected RWT2 SHA-256 of every gen-cold cell:
// the repository's goldens plus the benchmark's own pins for the sized
// cells.
func genDigests() (map[string]string, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var goldens map[string]struct {
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal(data, &goldens); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	out := make(map[string]string, len(goldens)+len(sizedDigests))
	for k, g := range goldens {
		out[k] = g.SHA256
	}
	for k, d := range sizedDigests {
		out[k] = d
	}
	return out, nil
}

// openStore opens a fresh trace store under the child's directory.
func openStore(env *childEnv, name string) (*tracestore.Store, string, error) {
	dir, err := workDir(env.dir, name)
	if err != nil {
		return nil, "", err
	}
	s, err := tracestore.Open(dir)
	return s, dir, err
}

// streamDigest decodes an RWT2 stream and returns the SHA-256 of its
// reference stream re-encoded the way golden_traces.json pins it (a
// non-seekable encoding, whose header leaves the reference count zero;
// a stored file has the count back-patched), plus its reference count.
// Decoding checks every chunk's CRC, so equal digests mean the stored
// stream is exactly the pinned one. The re-encoding streams into the
// hash, so the check holds no whole trace in memory and adds next to
// nothing to the heap the run measures.
func streamDigest(r io.Reader) (string, int64, error) {
	cr, err := trace.NewChunkReader(bufio.NewReader(r))
	if err != nil {
		return "", 0, err
	}
	m := cr.Meta()
	h := sha256.New()
	cw, err := trace.NewChunkWriter(h, trace.Meta{Benchmark: m.Benchmark, PEs: m.PEs,
		Sequential: m.Sequential, EmulatorVersion: m.EmulatorVersion})
	if err != nil {
		return "", 0, err
	}
	n, err := cr.Replay(cw)
	if err != nil {
		return "", 0, err
	}
	if err := cw.Close(); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// checkStored verifies a stored cell against its pinned digest and
// returns its reference count.
func checkStored(s *tracestore.Store, c cell, want map[string]string) (int64, error) {
	f, err := os.Open(s.Path(c.storeKey()))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	got, n, err := streamDigest(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", c.key(), err)
	}
	if got != want[c.key()] {
		return 0, fmt.Errorf("%s: RWT2 sha256 %s, pinned %s", c.key(), got, want[c.key()])
	}
	return n, nil
}

func runGenCold(ctx context.Context, env *childEnv) (*childResult, error) {
	res := &childResult{Figures: map[string]float64{}}
	want, err := genDigests()
	if err != nil {
		return nil, err
	}
	cells := genCells()
	if env.opts.traced {
		return tracedRun(ctx, env, res, walkInputs{cells: cells, digests: want})
	}
	// Set-up: one untimed generation pass into a throwaway store warms
	// the engine's slab pool and the code paths.
	_, err = repeatSetup(env, res, func(i int) (struct{}, error) {
		s, dir, err := openStore(env, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return struct{}{}, err
		}
		experiments.SetStore(s)
		targets, err := genTargets(env, cells)
		if err != nil {
			return struct{}{}, err
		}
		if err := experiments.GenerateTraces(ctx, targets); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, os.RemoveAll(dir)
	}, nil)
	if err != nil {
		return nil, err
	}

	// One operation: every cell generated into an empty store by one
	// GenerateTraces call.
	var passes []float64
	var busy time.Duration
	var refs int64
	heap := startHeapSampler()
	end := env.deadline()
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		s, dir, err := openStore(env, fmt.Sprintf("pass-%d", pass))
		if err != nil {
			return nil, err
		}
		experiments.SetStore(s)
		targets, err := genTargets(env, cells)
		if err != nil {
			return nil, err
		}
		res.Attempted += int64(len(cells))
		t0 := time.Now()
		err = experiments.GenerateTraces(ctx, targets)
		d := time.Since(t0)
		if err != nil {
			res.Failed += int64(len(cells)) - 1
			res.fail("generate: %v", err)
		} else {
			passes = append(passes, ms(d))
			busy += d
			for _, c := range cells {
				n, err := checkStored(s, c, want)
				if err != nil {
					res.fail("%v", err)
					continue
				}
				refs += n
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	experiments.SetStore(nil)
	res.Figures["peak_heap_mb"] = heap.Stop()
	res.Figures["refs_per_s"] = float64(refs) / busy.Seconds()
	res.Figures["gen_refs_per_s"] = res.Figures["refs_per_s"]
	res.Figures["op_p50_ms"] = quantile(passes, 0.5)
	res.Figures["op_tail_ms"] = quantile(passes, 0.9)
	res.Figures["ops"] = float64(len(passes))
	return res, nil
}
