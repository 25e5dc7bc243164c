// Command tracegen manages the persistent trace store: it generates
// benchmark traces in bulk (in parallel, ahead of any experiment run),
// inspects stored traces, and verifies store integrity.
//
// Usage:
//
//	tracegen generate -tracedir DIR [-bench LIST] [-pes LIST] [-mode auto|par|seq] [-par N] [-v]
//	tracegen ls       -tracedir DIR
//	tracegen inspect  -tracedir DIR | file.rwt2...
//	tracegen verify   -tracedir DIR [-repair] | file.rwt2...
//
// generate accepts -cpuprofile/-memprofile to capture pprof profiles
// of bulk generation (the emulator + codec hot path):
//
//	tracegen generate -cpuprofile cpu.out -tracedir traces -bench qsort -pes 4
//	go tool pprof cpu.out
//
// generate runs the emulator once per missing (benchmark, PEs) cell —
// independent cells concurrently on a bounded worker pool — streaming
// each trace into the store's compact codec as it is produced, so even
// traces larger than RAM generate in constant memory. -bench accepts a
// comma-separated list of benchmark names (parameterized variants like
// qsort-2000 included) or the presets "paper", "large" and "all";
// -mode auto traces each PE count parallel, plus the 1-PE cell as the
// sequential WAM baseline (the convention the experiment drivers use).
//
// ls prints one line per stored trace. inspect decodes headers (and,
// for a store, footers) and prints benchmark, PEs, mode, emulator
// version, reference counts and bytes/ref. verify fully decodes every
// trace, checking header, chunk CRCs and footer totals.
//
// Example: warm the store for the full experiment sweep, then run it
// without a single emulator execution:
//
//	tracegen generate -tracedir traces -bench all -pes 1,2,4,8
//	experiments -tracedir traces -exp all
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro"

	"repro/internal/cliflag"
	"repro/internal/profflag"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "generate":
		cmdGenerate(args)
	case "ls":
		cmdLs(args)
	case "inspect":
		cmdInspect(args)
	case "verify":
		cmdVerify(args)
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown command %q\n", cmd)
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tracegen generate -tracedir DIR [-bench LIST] [-pes LIST] [-mode auto|par|seq] [-par N] [-v]
  tracegen ls       -tracedir DIR
  tracegen inspect  -tracedir DIR | file.rwt2...
  tracegen verify   -tracedir DIR [-repair] | file.rwt2...`)
	os.Exit(2)
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

// stopProfiles is installed before any work, so an error exit still
// flushes a valid CPU profile (see internal/profflag).
var stopProfiles = func() {}

func startProfiles(cpuPath, memPath string) func() {
	return profflag.Start(cpuPath, memPath, fatal)
}

// parseBenches expands a -bench list (names or presets) into
// benchmarks.
func parseBenches(list string) ([]rapwam.Benchmark, error) {
	var names []string
	for _, tok := range strings.Split(list, ",") {
		switch tok = strings.TrimSpace(tok); tok {
		case "":
		case "paper":
			for _, b := range rapwam.PaperBenchmarks() {
				names = append(names, b.Name)
			}
		case "large":
			for _, b := range rapwam.LargeBenchmarks() {
				names = append(names, b.Name)
			}
		case "all":
			names = append(names, rapwam.BenchmarkNames()...)
		default:
			names = append(names, tok)
		}
	}
	seen := make(map[string]bool)
	var out []rapwam.Benchmark
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		b, ok := rapwam.BenchmarkByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		out = append(out, b)
	}
	return out, nil
}

// parsePEs parses a comma-separated PE-count list.
func parsePEs(list string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n < 1 || n > rapwam.MaxPEs {
			return nil, fmt.Errorf("bad PE count %q (need 1..%d)", tok, rapwam.MaxPEs)
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// cell is one (benchmark, PEs, sequential) generation target.
type cell struct {
	b   rapwam.Benchmark
	pes int
	seq bool
}

func cmdGenerate(args []string) {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	var (
		dir     = fs.String("tracedir", "", "trace store directory (required)")
		benches = fs.String("bench", "paper", "benchmarks: comma-separated names, or paper|large|all")
		pesList = fs.String("pes", "1,2,4,8", "comma-separated PE counts")
		mode    = fs.String("mode", "auto", "auto (parallel + 1-PE sequential baseline) | par | seq")
		par     = cliflag.Par(fs)
		verbose = fs.Bool("v", false, "report each generated cell on stderr")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the generation to this file")
		memProf = fs.String("memprofile", "", "write a heap profile (after generation) to this file")
	)
	fs.Parse(args)
	if *dir == "" || fs.NArg() != 0 {
		usage()
	}
	parN, err := cliflag.Resolve("par", *par)
	if err != nil {
		fatal(err)
	}
	stopProfiles = startProfiles(*cpuProf, *memProf)
	defer stopProfiles()
	bs, err := parseBenches(*benches)
	if err != nil {
		fatal(err)
	}
	pes, err := parsePEs(*pesList)
	if err != nil {
		fatal(err)
	}

	var cells []cell
	type cellID struct {
		name string
		pes  int
		seq  bool
	}
	seen := make(map[cellID]bool)
	add := func(c cell) {
		id := cellID{c.b.Name, c.pes, c.seq}
		if !seen[id] {
			seen[id] = true
			cells = append(cells, c)
		}
	}
	for _, b := range bs {
		for _, p := range pes {
			switch *mode {
			case "auto":
				// The experiment drivers' convention: parallel traces at
				// every PE count, plus the 1-PE sequential WAM baseline
				// every stats driver compares against — even when 1 is
				// not in -pes, so a warmed store really is warm.
				add(cell{b, p, false})
				add(cell{b, 1, true})
			case "par":
				add(cell{b, p, false})
			case "seq":
				add(cell{b, p, true})
			default:
				fatal(fmt.Errorf("bad -mode %q", *mode))
			}
		}
	}

	store, err := rapwam.OpenTraceStore(*dir)
	if err != nil {
		fatal(err)
	}
	grid := rapwam.NewRunner(store, parN, nil)
	if *verbose {
		grid.Progress = func(msg string) { fmt.Fprintf(os.Stderr, "tracegen: %s\n", msg) }
	}

	// Ctrl-C / SIGTERM cancel generation: in-flight engine runs abort,
	// their partial temp files are removed, and completed cells stay.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	before := store.Stats()
	err = grid.GenerateTraces(ctx, cells2targets(cells))
	if err != nil {
		if errors.Is(err, context.Canceled) {
			after := store.Stats()
			stopProfiles()
			fmt.Fprintf(os.Stderr, "tracegen: interrupted: %d of %d cells generated before the signal; completed cells stay valid, rerun to finish\n",
				after.Puts-before.Puts, len(cells))
			os.Exit(130)
		}
		fatal(err)
	}
	after := store.Stats()
	fmt.Printf("store %s: %d cells requested, %d generated, %d already present (%d emulator runs)\n",
		*dir, len(cells), after.Puts-before.Puts,
		len(cells)-int(after.Puts-before.Puts), rapwam.EngineRuns())
}

// cells2targets converts the CLI's cell list to the API's target type.
func cells2targets(cells []cell) []rapwam.TraceTarget {
	out := make([]rapwam.TraceTarget, len(cells))
	for i, c := range cells {
		out[i] = rapwam.TraceTarget{Benchmark: c.b, PEs: c.pes, Sequential: c.seq}
	}
	return out
}

// storeEntries lists a store directory via the public API.
func storeEntries(dir string) (*rapwam.TraceStore, []rapwam.TraceStoreEntry) {
	s, err := rapwam.OpenTraceStore(dir)
	if err != nil {
		fatal(err)
	}
	entries, err := s.List()
	if err != nil {
		fatal(err)
	}
	return s, entries
}

func cmdLs(args []string) {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	dir := fs.String("tracedir", "", "trace store directory (required)")
	fs.Parse(args)
	if *dir == "" || fs.NArg() != 0 {
		usage()
	}
	_, entries := storeEntries(*dir)
	printEntries(entries, false)
}

func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dir := fs.String("tracedir", "", "trace store directory")
	fs.Parse(args)
	if *dir != "" {
		_, entries := storeEntries(*dir)
		printEntries(entries, true)
		return
	}
	if fs.NArg() == 0 {
		usage()
	}
	var entries []rapwam.TraceStoreEntry
	for _, path := range fs.Args() {
		meta, size, err := rapwam.ReadTraceFileMeta(path)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		entries = append(entries, rapwam.TraceStoreEntry{Path: path, Meta: meta, Bytes: size})
	}
	printEntries(entries, true)
}

// printEntries renders one line per trace. Deep inspection decodes the
// whole file so footer counts and per-PE totals are authoritative.
func printEntries(entries []rapwam.TraceStoreEntry, deep bool) {
	if len(entries) == 0 {
		fmt.Println("(no traces)")
		return
	}
	fmt.Printf("%-28s %4s %4s %-8s %12s %10s %9s\n",
		"benchmark", "PEs", "mode", "emulator", "refs", "bytes", "bytes/ref")
	for _, e := range entries {
		m := e.Meta
		if deep {
			full, err := rapwam.ReadTraceFileFull(e.Path)
			if err != nil {
				fmt.Printf("%-28s  ERROR: %v\n", e.Path, err)
				continue
			}
			m = full
		}
		mode := "par"
		if m.Sequential {
			mode = "seq"
		}
		bpr := 0.0
		if m.Refs > 0 {
			bpr = float64(e.Bytes) / float64(m.Refs)
		}
		fmt.Printf("%-28s %4d %4s %-8s %12d %10d %9.2f\n",
			m.Benchmark, m.PEs, mode, m.EmulatorVersion, m.Refs, e.Bytes, bpr)
		if deep && len(m.PerPE) > 1 {
			fmt.Printf("%-28s      per-PE refs: %v\n", "", m.PerPE)
		}
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("tracedir", "", "trace store directory")
	repair := fs.Bool("repair", false, "scrub mode: quarantine corrupt objects and regenerate them (requires -tracedir)")
	fs.Parse(args)
	if *repair {
		if *dir == "" || fs.NArg() != 0 {
			usage()
		}
		cmdRepair(*dir)
		return
	}
	var errs []error
	var checked int
	if *dir != "" {
		s, err := rapwam.OpenTraceStore(*dir)
		if err != nil {
			fatal(err)
		}
		entries, err := s.List()
		if err != nil {
			fatal(err)
		}
		checked = len(entries)
		errs = s.Verify()
	} else {
		if fs.NArg() == 0 {
			usage()
		}
		for _, path := range fs.Args() {
			checked++
			if err := rapwam.VerifyTraceFile(path); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", path, err))
			}
		}
	}
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "tracegen: corrupt:", err)
	}
	if len(errs) > 0 {
		fmt.Printf("%d traces checked, %d corrupt\n", checked, len(errs))
		os.Exit(1)
	}
	fmt.Printf("%d traces checked, all clean\n", checked)
}

// cmdRepair is verify -repair: a full scrub (every object decoded and
// checked against its content address; failures moved to quarantine/)
// followed by regeneration of the quarantined cells that belong to
// this build's benchmarks and emulator version. Foreign cells stay
// quarantined for inspection.
func cmdRepair(dir string) {
	store, err := rapwam.OpenTraceStore(dir)
	if err != nil {
		fatal(err)
	}
	rep := store.Scrub()
	for _, err := range rep.Errors {
		fmt.Fprintln(os.Stderr, "tracegen: scrub:", err)
	}
	for _, name := range rep.Quarantined {
		fmt.Fprintf(os.Stderr, "tracegen: quarantined %s\n", name)
	}
	var targets []rapwam.TraceTarget
	var skipped int
	for _, k := range rep.Recoverable {
		b, ok := rapwam.BenchmarkByName(k.Benchmark)
		if !ok || k.EmulatorVersion != rapwam.EmulatorVersion() {
			skipped++
			fmt.Fprintf(os.Stderr, "tracegen: cannot regenerate %v (unknown benchmark or foreign emulator version)\n", k)
			continue
		}
		targets = append(targets, rapwam.TraceTarget{Benchmark: b, PEs: k.PEs, Sequential: k.Sequential})
	}
	if len(targets) > 0 {
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		if err := rapwam.NewRunner(store, 0, nil).GenerateTraces(ctx, targets); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%d traces scrubbed, %d quarantined, %d regenerated, %d unrecoverable\n",
		rep.Checked, len(rep.Quarantined), len(targets), skipped)
	// Corruption that was quarantined AND regenerated is a successful
	// repair, not a failure. Exit nonzero only for what repair could
	// not fix: unrecoverable cells, or scrub errors beyond the
	// quarantined objects themselves (e.g. transient backend faults).
	if skipped > 0 || len(rep.Errors) > len(rep.Quarantined) {
		os.Exit(1)
	}
}
