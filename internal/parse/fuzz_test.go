package parse_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/parse"
)

// FuzzParse feeds arbitrary source text to the Prolog front end. The
// contract: every input either parses or returns an error, and never
// panics. The seeds are the programs and queries of the built-in
// benchmarks, so mutations start from real &-Prolog with CGEs.
func FuzzParse(f *testing.F) {
	for _, name := range bench.Names() {
		b, ok := bench.ByName(name)
		if !ok {
			f.Fatalf("benchmark %q missing", name)
		}
		f.Add(b.Source)
		f.Add(b.Query)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if clauses, err := parse.Program(src); err == nil {
			for _, c := range clauses {
				if c == nil {
					t.Fatalf("Program(%q) returned a nil clause without error", src)
				}
			}
		}
		_, _ = parse.OneTerm(src)
	})
}
