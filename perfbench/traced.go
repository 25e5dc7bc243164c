package main

// The traced run. Spans are recorded here, in the benchmark's own
// code, around calls into each layer's public functions; nothing in the
// program is instrumented. A traced run walks the whole pipeline over
// the workload's inputs (its cells and its trace store), so every layer
// has a measured row on every workload:
//
//	gen     per cell: compile, emulate, then capture (the trace into a
//	        buffer, for the next two), encode, store.put
//	replay  per paper cell at 8 PEs: store.replay, decode, store.load
//	        (the trace into a buffer), replay.fa, replay.sa, fanout
//	grid    every `-exp all` driver over the workload's store, then
//	        its text rendering
//	serve   a fresh service over that store: warm-up computes, hits over
//	        HTTP and straight into the handler, result-cache get/put,
//	        and a few cold requests
//
// The walk runs alternately with the recorder off and on for the run's
// seconds; tracing overhead is the mean traced minus the mean untraced
// walk time. End-to-end metrics never come from a traced run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// span is one timed call. Spans of one request (a cell, a driver, an
// HTTP path) share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory. The walk is single-goroutine, so the
// open spans form a stack. A disabled recorder only times calls.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// do runs f inside a span and returns its duration.
func (r *recorder) do(name, req string, f func() error) (time.Duration, error) {
	t := time.Now()
	if !r.on {
		err := f()
		return time.Since(t), err
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{ID: idx + 1, Parent: parent, Name: name, Req: req, Start: int64(t.Sub(r.t0))})
	r.open = append(r.open, idx)
	err := f()
	d := time.Since(t)
	r.open = r.open[:len(r.open)-1]
	r.spans[idx].End = r.spans[idx].Start + int64(d)
	return d, err
}

// selfTimes sums each span name's self time: its duration minus the
// part its children cover. Children of one span run one after another,
// so their durations do not overlap.
func selfTimes(spans []span) map[string]time.Duration {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// walkInputs are a workload's inputs to the traced walk.
type walkInputs struct {
	// cells are generated by the gen phase.
	cells []cell
	// digests, when set, pin each generated cell's RWT2 SHA-256.
	digests map[string]string
	// store is the workload's trace store for the grid and serve
	// phases (nil: the store the gen phase filled).
	store *tracestore.Store
}

// walkTotals accumulates the walk's work counts and the durations that
// per-layer rates divide by.
type walkTotals struct {
	compileN                int
	compile, emulate        time.Duration
	emulateRefs, engineRuns int64
	encode, put             time.Duration
	encodeRefs, encodeBytes int64
	storeReplay, decode     time.Duration
	replayRefs              int64
	fa, sa, singles         time.Duration
	faSimrefs, saSimrefs    int64
	grid                    map[string]time.Duration
	render                  time.Duration
	renderN                 int
	handlerHit, httpHit     time.Duration
	handlerN, httpN         int
	rcGet, rcPut            time.Duration
	rcN                     int
	storeHits, storeMisses  int64
	storeBytes              int64
	computes, sheds         int64
	sources                 map[string]int64
	checked, failed         int64
	failures                []string
	gcCycles, gcPauseNs     uint64
}

func newWalkTotals() *walkTotals {
	return &walkTotals{grid: map[string]time.Duration{}, sources: map[string]int64{}}
}

// check counts one checked output of the walk; err marks it wrong.
func (t *walkTotals) check(phase string, err error) {
	t.checked++
	if err != nil {
		t.failed++
		if len(t.failures) < maxFailures {
			t.failures = append(t.failures, phase+": "+err.Error())
		}
	}
}

func fig4Configs(pes int) []cache.Config {
	var out []cache.Config
	for _, p := range []cache.Protocol{cache.WriteInBroadcast, cache.Hybrid, cache.WriteThrough} {
		for _, size := range fig4Sizes {
			out = append(out, cache.Config{PEs: pes, SizeWords: size, LineWords: 4, Protocol: p,
				WriteAllocate: cache.PaperWriteAllocate(p, size)})
		}
	}
	return out
}

// saConfigs are the set-associative configurations of the assoc sweep.
func saConfigs(pes int) []cache.Config {
	var out []cache.Config
	for _, ways := range []int{1, 2, 4, 8} {
		out = append(out, cache.Config{PEs: pes, SizeWords: 1024, LineWords: 4, Protocol: cache.WriteInBroadcast,
			WriteAllocate: cache.PaperWriteAllocate(cache.WriteInBroadcast, 1024), Assoc: ways})
	}
	return out
}

// walk runs the four phases once.
func walk(ctx context.Context, env *childEnv, in walkInputs, rec *recorder, tot *walkTotals, name string) error {
	s, dir, err := openStore(env, name+"-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := walkGen(ctx, in, rec, tot, s); err != nil {
		return err
	}
	if err := walkReplay(rec, tot, s); err != nil {
		return err
	}
	st := s.Stats()
	tot.storeHits += st.Hits
	tot.storeMisses += st.Misses
	entries, err := s.List()
	if err != nil {
		return err
	}
	for _, e := range entries {
		tot.storeBytes += e.Bytes
	}
	ds := in.store
	if ds == nil {
		ds = s
	}
	if err := walkGrid(ctx, rec, tot, ds); err != nil {
		return err
	}
	return walkServe(env, rec, tot, ds, name)
}

func walkGen(ctx context.Context, in walkInputs, rec *recorder, tot *walkTotals, s *tracestore.Store) error {
	for _, c := range in.cells {
		b, err := c.benchmark()
		if err != nil {
			return err
		}
		_, err = rec.do("cell", c.key(), func() error {
			d, err := rec.do("compile", c.key(), func() error {
				_, err := compile.Compile(b.Source, b.Query, compile.Options{Sequential: c.seq})
				return err
			})
			if err != nil {
				return err
			}
			tot.compile += d
			tot.compileN++
			var res *core.Result
			d, err = rec.do("emulate", c.key(), func() error {
				res, err = bench.Run(ctx, b, bench.RunConfig{PEs: c.pes, Sequential: c.seq})
				return err
			})
			if err != nil {
				return err
			}
			tot.emulate += d
			tot.emulateRefs += res.Refs.Total()
			var buf *trace.Buffer
			if _, err := rec.do("capture", c.key(), func() error {
				buf, _, err = bench.TraceDirect(ctx, b, c.pes, c.seq)
				return err
			}); err != nil {
				return err
			}
			// The encoder writes into a byte counter: no buffer growth
			// to time, so store.put minus encode leaves the write.
			var enc countingWriter
			meta := trace.Meta{Benchmark: c.name, PEs: c.pes, Sequential: c.seq, EmulatorVersion: core.EmulatorVersion}
			encD, err := rec.do("encode", c.key(), func() error { return buf.WriteCompact(&enc, meta) })
			if err != nil {
				return err
			}
			putD, err := rec.do("store.put", c.key(), func() error {
				return s.Put(c.storeKey(), func(sink trace.Sink) error {
					buf.Replay(sink)
					return nil
				})
			})
			if err != nil {
				return err
			}
			tot.encode += encD
			tot.put += putD - encD
			tot.encodeRefs += int64(buf.Len())
			tot.encodeBytes += int64(enc)
			if in.digests != nil {
				_, err := checkStored(s, c, in.digests)
				tot.check("gen", err)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func walkReplay(rec *recorder, tot *walkTotals, s *tracestore.Store) error {
	for _, c := range paperCells(8) {
		_, err := rec.do("cell", c.key(), func() error {
			k := c.storeKey()
			d, err := rec.do("store.replay", c.key(), func() error {
				_, err := s.Replay(k, trace.Discard)
				return err
			})
			if err != nil {
				return err
			}
			tot.storeReplay += d
			m, _, err := s.Meta(k)
			if err != nil {
				return err
			}
			tot.replayRefs += m.Refs
			data, err := os.ReadFile(s.Path(k))
			if err != nil {
				return err
			}
			d, err = rec.do("decode", c.key(), func() error {
				cr, err := trace.NewChunkReader(bytes.NewReader(data))
				if err != nil {
					return err
				}
				_, err = cr.Replay(trace.Discard)
				return err
			})
			if err != nil {
				return err
			}
			tot.decode += d
			var buf *trace.Buffer
			if _, err := rec.do("store.load", c.key(), func() error {
				buf, _, err = s.Load(k)
				return err
			}); err != nil {
				return err
			}
			fa := fig4Configs(c.pes)
			var all []cache.Stats
			d, err = rec.do("replay.fa", c.key(), func() error {
				all, err = cache.SimulateAll(buf, fa)
				return err
			})
			if err != nil {
				return err
			}
			tot.fa += d
			tot.faSimrefs += int64(buf.Len()) * int64(len(fa))
			sa := saConfigs(c.pes)
			d, err = rec.do("replay.sa", c.key(), func() error {
				_, err := cache.SimulateAll(buf, sa)
				return err
			})
			if err != nil {
				return err
			}
			tot.sa += d
			tot.saSimrefs += int64(buf.Len()) * int64(len(sa))
			// fanout: the same configurations one pass each, against the
			// single fan-out pass above; the statistics must agree.
			d, err = rec.do("fanout", c.key(), func() error {
				for i, cfg := range fa {
					one, err := cache.SimulateAll(buf, []cache.Config{cfg})
					if err != nil {
						return err
					}
					var err2 error
					if one[0] != all[i] {
						err2 = fmt.Errorf("%s: config %d: single pass differs from the fan-out pass", c.key(), i)
					}
					tot.check("fanout", err2)
				}
				return nil
			})
			if err != nil {
				return err
			}
			tot.singles += d
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func walkGrid(ctx context.Context, rec *recorder, tot *walkTotals, ds *tracestore.Store) error {
	experiments.SetStore(ds)
	defer experiments.SetStore(nil)
	runs := bench.EngineRuns()
	before := ds.Stats()
	for _, d := range sweepDrivers() {
		_, err := rec.do("experiment", d.name, func() error {
			var text func() string
			gd, err := rec.do("grid", d.name, func() error {
				var err error
				text, err = d.run(ctx)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", d.name, err)
			}
			tot.grid[d.name] += gd
			var out string
			rd, _ := rec.do("render", d.name, func() error {
				out = text()
				return nil
			})
			tot.render += rd
			tot.renderN++
			var err2 error
			if digest(out) != sweepDigests[d.name] {
				err2 = fmt.Errorf("%s: rendered output sha256 %s, pinned %s", d.name, digest(out), sweepDigests[d.name])
			}
			tot.check("grid", err2)
			return nil
		})
		if err != nil {
			return err
		}
	}
	tot.engineRuns += bench.EngineRuns() - runs
	after := ds.Stats()
	tot.storeHits += after.Hits - before.Hits
	tot.storeMisses += after.Misses - before.Misses
	return nil
}

// canonicalKey is the result-cache key a served envelope belongs to.
func canonicalKey(body []byte) (service.CacheKey, error) {
	var env service.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return service.CacheKey{}, err
	}
	names := make([]string, 0, len(env.Params))
	for n := range env.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + env.Params[n]
	}
	return service.CacheKey{Experiment: env.Experiment, Params: strings.Join(parts, "&")}, nil
}

func walkServe(env *childEnv, rec *recorder, tot *walkTotals, ds *tracestore.Store, name string) error {
	results, err := workDir(env.dir, name+"-results")
	if err != nil {
		return err
	}
	defer os.RemoveAll(results)
	srv, err := serveOn(results, ds.Dir())
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient()
	request := func(path string, want string) ([]byte, error) {
		var r response
		var hd time.Duration
		_, err := rec.do("request", path, func() error {
			var err error
			hd, err = rec.do("http", path, func() error {
				var err error
				r, err = get(c, srv.base+path)
				return err
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		tot.sources[r.source]++
		var bad error
		switch {
		case r.source != want && !(want == "memory" && warmSource(r.source)):
			bad = fmt.Errorf("%s: X-Result-Source %q, want %q", path, r.source, want)
		case strings.Contains(path, "format=json"):
			bad = checkEnvelope(r.body)
		}
		tot.check("serve", bad)
		if want == "memory" {
			tot.httpHit += hd
			tot.httpN++
		}
		return r.body, nil
	}
	// Warm-up computes, then hits over HTTP.
	for _, p := range hitPaths() {
		if strings.HasSuffix(p, "=json") {
			if _, err := request(p, "computed"); err != nil {
				return err
			}
		}
	}
	var jsonBodies [][]byte
	for _, p := range hitPaths() {
		body, err := request(p, "memory")
		if err != nil {
			return err
		}
		if strings.HasSuffix(p, "=json") {
			jsonBodies = append(jsonBodies, body)
		}
	}
	// Hits straight into the handler, without a socket.
	h := srv.svc.Handler()
	for _, p := range hitPaths() {
		w := httptest.NewRecorder()
		req, err := http.NewRequest(http.MethodGet, p, nil)
		if err != nil {
			return err
		}
		rec.do("request", p, func() error {
			hd, _ := rec.do("handler", p, func() error {
				h.ServeHTTP(w, req)
				return nil
			})
			tot.handlerHit += hd
			return nil
		})
		tot.handlerN++
		var bad error
		if w.Code != http.StatusOK || !warmSource(w.Header().Get("X-Result-Source")) {
			bad = fmt.Errorf("handler %s: status %d, source %q", p, w.Code, w.Header().Get("X-Result-Source"))
		}
		tot.check("serve", bad)
	}
	// The result cache on its own: put then get every warm body.
	rc, err := service.OpenResultCache(filepath.Join(results, "standalone"))
	if err != nil {
		return err
	}
	for _, body := range jsonBodies {
		k, err := canonicalKey(body)
		if err != nil {
			return err
		}
		var got []byte
		if _, err := rec.do("request", k.Experiment, func() error {
			pd, err := rec.do("resultcache", k.Experiment, func() error { return rc.Put(k, body) })
			if err != nil {
				return err
			}
			gd, _ := rec.do("resultcache", k.Experiment, func() error {
				got, _, _ = rc.Get(k)
				return nil
			})
			tot.rcPut += pd
			tot.rcGet += gd
			tot.rcN++
			return nil
		}); err != nil {
			return err
		}
		var bad error
		if !bytes.Equal(got, body) {
			bad = fmt.Errorf("result cache %s: get returned other bytes than put", k.Experiment)
		}
		tot.check("serve", bad)
	}
	// A few cold requests, computed by replay.
	params := newColdParams(env.opts.seed)
	for i := 0; i < 3; i++ {
		if _, err := request(params.next().path(), "computed"); err != nil {
			return err
		}
	}
	tot.computes += srv.svc.Computes()
	tot.sheds += srv.svc.Sheds()
	return nil
}

// tracedRun alternates untraced and traced walks for the run's seconds
// (at least one of each) and reports the per-layer figures.
func tracedRun(ctx context.Context, env *childEnv, res *childResult, in walkInputs) (*childResult, error) {
	tot := newWalkTotals()
	var offWalls, onWalls []float64
	// One recorder for every traced walk keeps span IDs unique.
	on, off := newRecorder(true), newRecorder(false)
	traced := func(i int) error {
		gc := readGC()
		t := time.Now()
		if err := walk(ctx, env, in, on, tot, fmt.Sprintf("on-%d", i)); err != nil {
			return err
		}
		onWalls = append(onWalls, ms(time.Since(t)))
		after := readGC()
		tot.gcCycles += uint64(after.cycles - gc.cycles)
		tot.gcPauseNs += after.pauseNs - gc.pauseNs
		return nil
	}
	untraced := func(i int) error {
		t := time.Now()
		if err := walk(ctx, env, in, off, newWalkTotals(), fmt.Sprintf("off-%d", i)); err != nil {
			return err
		}
		offWalls = append(offWalls, ms(time.Since(t)))
		return nil
	}
	// Pairs alternate which walk goes first, so neither side always
	// inherits the other's warm caches. Another pair starts only if it
	// should end by the deadline.
	end := env.deadline()
	var pair time.Duration
	for i := 0; i == 0 || time.Now().Add(pair).Before(end); i++ {
		t0 := time.Now()
		first, second := untraced, traced
		if i%2 == 1 {
			first, second = traced, untraced
		}
		if err := first(i); err != nil {
			return nil, err
		}
		if err := second(i); err != nil {
			return nil, err
		}
		pair = time.Since(t0)
	}
	spans := on.spans
	if err := writeSpans(env, spans); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Failures = tot.checked, tot.failed, tot.failures
	f := res.Figures
	perRef := func(d time.Duration, n int64) float64 { return float64(d) / float64(max(n, 1)) }
	f["compile.ms"] = ms(tot.compile) / float64(max(tot.compileN, 1))
	f["emulate.ns_per_ref"] = perRef(tot.emulate-tot.compile, tot.emulateRefs)
	f["emulate.refs"] = float64(tot.emulateRefs)
	f["emulate.runs"] = float64(tot.engineRuns)
	f["encode.ns_per_ref"] = perRef(tot.encode, tot.encodeRefs)
	f["encode.bytes_per_ref"] = float64(tot.encodeBytes) / float64(max(tot.encodeRefs, 1))
	f["decode.ns_per_ref"] = perRef(tot.decode, tot.replayRefs)
	f["store.put_ns_per_ref"] = perRef(tot.put, tot.encodeRefs)
	f["store.replay_ns_per_ref"] = perRef(tot.storeReplay, tot.replayRefs)
	f["store.hits"] = float64(tot.storeHits)
	f["store.misses"] = float64(tot.storeMisses)
	f["store.bytes"] = float64(tot.storeBytes)
	f["replay.fa.ns_per_simref"] = perRef(tot.fa, tot.faSimrefs)
	f["replay.sa.ns_per_simref"] = perRef(tot.sa, tot.saSimrefs)
	f["replay.simrefs"] = float64(tot.faSimrefs + tot.saSimrefs)
	f["fanout.speedup"] = float64(tot.singles) / float64(tot.fa)
	walks := float64(len(onWalls))
	for name, d := range tot.grid {
		f["grid."+name+"_s"] = d.Seconds() / walks
	}
	f["render.ms"] = ms(tot.render) / float64(max(tot.renderN, 1))
	f["handler.hit_us"] = float64(tot.handlerHit) / 1e3 / float64(max(tot.handlerN, 1))
	f["http.hit_us"] = float64(tot.httpHit) / 1e3 / float64(max(tot.httpN, 1))
	f["resultcache.get_us"] = float64(tot.rcGet) / 1e3 / float64(max(tot.rcN, 1))
	f["resultcache.put_us"] = float64(tot.rcPut) / 1e3 / float64(max(tot.rcN, 1))
	f["service.computes"] = float64(tot.computes)
	f["service.sheds"] = float64(tot.sheds)
	for _, src := range []string{"memory", "disk", "computed"} {
		f["service.source."+src] = float64(tot.sources[src])
	}
	f["gc.cycles"] = float64(tot.gcCycles)
	f["gc.pause_ms"] = float64(tot.gcPauseNs) / 1e6
	f["trace.overhead_ms"] = sum(onWalls)/walks - sum(offWalls)/float64(len(offWalls))
	f["trace.walk_ms"] = sum(onWalls) / walks
	for name, d := range selfTimes(spans) {
		f["self."+name+"_ms"] = ms(d) / walks
	}
	return res, nil
}

// writeSpans writes the traced walks' spans as JSON lines under the
// build directory, one file per workload and seed.
func writeSpans(env *childEnv, spans []span) error {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", env.opts.workload, env.opts.seed)), b.Bytes(), 0o644)
}

// layerSpans are the span names of the pipeline's layers; the traced
// run reports a self-time row (self.<name>_ms) for each.
var layerSpans = []string{
	"compile", "emulate", "encode", "store.put", "store.replay", "decode",
	"replay.fa", "replay.sa", "fanout", "grid", "render", "handler", "http", "resultcache",
}

// countingWriter counts the bytes written to it and drops them.
type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}
