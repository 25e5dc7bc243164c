package compile_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
)

// FuzzCompile feeds arbitrary program text, query text and compile mode
// to the compiler. The contract: every input either compiles or returns
// an error, and never panics. The seeds are the programs and queries of
// the built-in benchmarks in both modes, so mutations start from real
// &-Prolog with CGEs.
func FuzzCompile(f *testing.F) {
	for _, name := range bench.Names() {
		b, ok := bench.ByName(name)
		if !ok {
			f.Fatalf("benchmark %q missing", name)
		}
		f.Add(b.Source, b.Query, false)
		f.Add(b.Source, b.Query, true)
	}
	f.Fuzz(func(t *testing.T, src, query string, sequential bool) {
		code, err := compile.Compile(src, query, compile.Options{Sequential: sequential})
		if err == nil && code == nil {
			t.Fatalf("Compile(%q, %q) returned neither code nor an error", src, query)
		}
	})
}
