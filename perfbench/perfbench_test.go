package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lint"
	"repro/internal/trace"
)

// TestPins recomputes every pinned digest without a trace store: the
// sized cells straight from the emulator into the RWT2 encoder, and the
// sweep drivers' rendered text over RAM-memoized traces.
func TestPins(t *testing.T) {
	ctx := context.Background()
	experiments.SetStore(nil)
	for _, c := range sizedCells {
		b, err := c.benchmark()
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		cw, err := trace.NewChunkWriter(&enc, trace.Meta{Benchmark: c.name, PEs: c.pes, Sequential: c.seq,
			EmulatorVersion: core.EmulatorVersion})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bench.Run(ctx, b, bench.RunConfig{PEs: c.pes, Sequential: c.seq, Sink: cw}); err != nil {
			t.Fatalf("%s: %v", c.key(), err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc.Bytes())
		if got := hex.EncodeToString(sum[:]); got != sizedDigests[c.key()] {
			t.Errorf("sized cell %q: sha256 %s, pinned %s", c.key(), got, sizedDigests[c.key()])
		}
	}
	for _, d := range sweepDrivers() {
		text, err := d.runText(ctx)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if got := digest(text); got != sweepDigests[d.name] {
			t.Errorf("sweep driver %q: sha256 %s, pinned %s", d.name, got, sweepDigests[d.name])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "emulate", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "encode", Start: 50, End: 80},
		{ID: 4, Parent: 3, Name: "inner", Start: 60, End: 70},
	}
	got := selfTimes(spans)
	want := map[string]int64{"cell": 30, "emulate": 40, "encode": 20, "inner": 10}
	for name, w := range want {
		if int64(got[name]) != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

// TestLint runs the repository's static analyzers over the benchmark.
func TestLint(t *testing.T) {
	pkgs, root, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Run(pkgs, root, lint.Analyzers()) {
		t.Errorf("%s", d)
	}
}

// TestSmoke runs every workload for one second through the driver,
// untraced and traced, and checks that each BENCHMARK.json metric is
// emitted with its unit, that every operation succeeded, and that the
// traced run has a self-time row for every layer.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	exe := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			cmd := exec.Command(exe, "--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", traced)
			cmd.Dir = ".."
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%s: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var sum summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w.name, traced, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.name, traced,
					sum.Correct, sum.Attempted, sum.Failed, out)
			}
			want := spec.EndToEnd
			if traced == "1" {
				want = spec.PerLayer
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
				if traced == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
				if strings.HasPrefix(m.Name, "self.") && got.Value < 0 {
					t.Errorf("%s: self time %s = %v, want >= 0", w.name, m.Name, got.Value)
				}
			}
			if traced == "1" {
				for _, layer := range layerSpans {
					if _, ok := sum.Metrics["self."+layer+"_ms"]; !ok {
						t.Errorf("%s: traced run has no self-time row for layer %s", w.name, layer)
					}
				}
			}
		}
	}
}
