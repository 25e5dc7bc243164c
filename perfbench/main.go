// Command perfbench is the repository's benchmark: one driver that
// measures the rapwam pipeline (emulate → encode → store → replay →
// serve) end to end on three workloads, and layer by layer in a
// separate traced run.
//
// Run it from the repository root (perfbench/run.sh builds it first):
//
//	perfbench --workload gen-cold|sweep-warm|serve-mixed --seed N --seconds S --trace 0|1
//
// Each run executes in a fresh child process, so the process-global
// grid state (the experiments trace memo, the attached trace store,
// the engine-run counter, the memory slab pool) cannot leak between
// workloads or runs. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}, where the
// metrics are BENCHMARK.json's end_to_end list (--trace 0) or its
// per_layer list (--trace 1). The line before it is the full result
// record: host fingerprint, seed, and every figure the run measured.
// See perfbench/README.md for the metric definitions.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == childCommand {
		os.Exit(childMain(os.Args[2:]))
	}
	if err := driverMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
