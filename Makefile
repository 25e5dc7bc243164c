# Developer entry points; CI runs the same targets.

GO ?= go

# Third-party scanners are pinned here (not in go.mod: a tools.go
# dependency would put them on the module graph and break hermetic
# offline builds). `make audit` installs-and-runs them by version, so
# CI and developers resolve identical binaries.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# Per-target budget for `make fuzz` (three targets run back to back).
FUZZTIME ?= 30s

.PHONY: all check build test race lint audit fuzz cover fmt vet docs

all: build test

# check is the full pre-push gate: everything CI's required jobs run.
check: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint is the repo-invariant gate: formatting, go vet, then the
# rapwamlint analyzer suite (internal/lint, cmd/rapwamlint) —
# determinism, errortaxonomy, hotpath, ctxfirst, versionbump, and the
# //rapwam:allow annotation audit. Uses only the Go toolchain, so it
# runs identically offline.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/rapwamlint ./...

# audit layers the pinned third-party scanners on top of lint. Both
# resolve their module by version at run time, so the target needs
# network access the first time — which is why it is separate from
# lint and optional outside CI.
audit:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# fuzz exercises the three hostile-input surfaces: the compact trace
# decoder, the fault-spec parser and the Prolog parser. Seeds live in
# each fuzz function and its package's testdata/fuzz corpus; new
# findings land there too.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzChunkReader -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzParseFaults -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/parse/

# race covers every concurrent subsystem: the fan-out replay pipeline,
# the grid worker pool, the stores, and the service's single-flight.
race:
	$(GO) test -race ./internal/core/ ./internal/mem/ ./internal/trace/ ./internal/cache/ ./internal/experiments/ ./internal/tracestore/ ./internal/bench/ ./internal/service/ ./internal/storage/

# cover collects statement coverage across internal packages and
# enforces the storage+service floor (scripts/check_coverage.sh).
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	sh scripts/check_coverage.sh coverage.out

# docs checks the published markdown (broken relative links) and runs
# the committed Example functions.
docs:
	sh scripts/check_links.sh
	$(GO) test -run 'Example' . ./internal/cache/

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...
