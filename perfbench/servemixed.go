package main

// serve-mixed: the in-process results service on loopback, with its
// result cache and trace store warmed during set-up, serving warm hits
// beside cold computes. With one cold compute running, hit latency
// rises even though hits run no compute code: the reads-beside-writes
// mix.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/tracestore"
)

// hitRate is the open-loop warm-hit rate. Beside a cold compute a hit
// takes ~15 ms, so at 50/s the one hit connection is rarely backed up
// and latency is the request's own; at 100/s and more the generator
// runs late most of the time.
const hitRate = 50

// hitExperiments are the warmed experiments; each is requested in
// every format.
var hitExperiments = []string{"table1", "fig2", "table2", "table3", "fig4", "mlips", "bus", "ablations"}

var formats = []string{"json", "csv", "text"}

func hitPaths() []string {
	var out []string
	for _, e := range hitExperiments {
		for _, f := range formats {
			out = append(out, "/v1/experiments/"+e+"?format="+f)
		}
	}
	return out
}

// liveServer is one service instance serving on a loopback port.
type liveServer struct {
	svc    *service.Server
	base   string
	dirs   []string
	cancel context.CancelFunc
	done   chan error
}

// startServer builds a service over fresh result and trace directories
// and serves it on 127.0.0.1 through service.Serve, as rapwamd does.
func startServer(env *childEnv, name string) (*liveServer, error) {
	results, err := workDir(env.dir, name+"-results")
	if err != nil {
		return nil, err
	}
	traces, err := workDir(env.dir, name+"-traces")
	if err != nil {
		return nil, err
	}
	return serveOn(results, traces)
}

func serveOn(resultDir, traceDir string) (*liveServer, error) {
	svc, err := service.New(service.Config{ResultDir: resultDir, TraceDir: traceDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &liveServer{svc: svc, base: "http://" + ln.Addr().String(), dirs: []string{resultDir, traceDir},
		cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- service.Serve(ctx, "", ln, svc, time.Second) }()
	return s, nil
}

// stop shuts the server down and waits for it.
func (s *liveServer) stop() {
	s.cancel()
	<-s.done
}

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// response is one completed request.
type response struct {
	body   []byte
	source string
}

func get(c *http.Client, url string) (response, error) {
	resp, err := c.Get(url)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return response{}, fmt.Errorf("%s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return response{body: body, source: resp.Header.Get("X-Result-Source")}, nil
}

// checkEnvelope verifies a JSON body's result_sha256 against its
// result payload.
func checkEnvelope(body []byte) error {
	var env service.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return err
	}
	sum := sha256.Sum256(env.Result)
	if hex.EncodeToString(sum[:]) != env.ResultSHA {
		return errors.New("result_sha256 does not match the result")
	}
	return nil
}

// warmHits computes every hit experiment once and returns each hit
// path's warm body. The fig4 request also stores the traces the cold
// requests replay.
func warmHits(c *http.Client, base string) (map[string][]byte, error) {
	bodies := map[string][]byte{}
	for _, p := range hitPaths() {
		r, err := get(c, base+p)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(p, "=json") {
			if err := checkEnvelope(r.body); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
		}
		bodies[p] = r.body
	}
	return bodies, nil
}

// coldParams draws never-seen fig4 parameter cells from the seed. The
// cell shapes — how many PE counts (1-4) and cache sizes (1-3) — rotate
// in a fixed order, so every run replays the same mix of work; the seed
// picks the PE counts and the sizes (multiples of 64 words).
type coldParams struct {
	rng  *rand.Rand
	n    int
	seen map[string]bool
}

type coldCell struct {
	pes, sizes []int
}

func newColdParams(seed uint64) *coldParams {
	return &coldParams{rng: rand.New(rand.NewPCG(seed, 0x636f6c64)), seen: map[string]bool{}}
}

func (p *coldParams) next() coldCell {
	npes, nsizes := 1+p.n%len(fig4PEs), 1+p.n/len(fig4PEs)%3
	p.n++
	for {
		var c coldCell
		for _, i := range p.rng.Perm(len(fig4PEs))[:npes] {
			c.pes = append(c.pes, fig4PEs[i])
		}
		sort.Ints(c.pes)
		picked := map[int]bool{}
		for len(c.sizes) < nsizes {
			s := 64 * (1 + p.rng.IntN(128))
			if !picked[s] {
				picked[s] = true
				c.sizes = append(c.sizes, s)
			}
		}
		sort.Ints(c.sizes)
		if q := c.query(); !p.seen[q] {
			p.seen[q] = true
			return c
		}
	}
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func (c coldCell) query() string { return "pes=" + joinInts(c.pes) + "&sizes=" + joinInts(c.sizes) }

func (c coldCell) path() string { return "/v1/experiments/fig4?format=json&" + c.query() }

// simrefs is the cell's trace refs × cache configurations: every paper
// benchmark at each PE count, through 3 protocols × the sizes.
func (c coldCell) simrefs(s *tracestore.Store) (int64, error) {
	var n int64
	for _, pes := range c.pes {
		for _, pc := range paperCells(pes) {
			m, _, err := s.Meta(pc.storeKey())
			if err != nil {
				return 0, err
			}
			n += m.Refs * int64(3*len(c.sizes))
		}
	}
	return n, nil
}

// warmSource reports whether an X-Result-Source value is a result-cache
// hit. The memory layer holds 128 results and evicts at random when
// full, and every cold request adds one, so a warm hit may come from
// disk.
func warmSource(src string) bool { return src == "memory" || src == "disk" }

func runServeMixed(ctx context.Context, env *childEnv) (*childResult, error) {
	res := &childResult{Figures: map[string]float64{}}
	type state struct {
		srv    *liveServer
		bodies map[string][]byte
	}
	st, err := repeatSetup(env, res, func(i int) (state, error) {
		srv, err := startServer(env, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return state{}, err
		}
		bodies, err := warmHits(newClient(), srv.base)
		return state{srv, bodies}, err
	}, func(st state) {
		st.srv.stop()
		for _, d := range st.srv.dirs {
			os.RemoveAll(d)
		}
	})
	if err != nil {
		return nil, err
	}
	defer st.srv.stop()
	if env.opts.traced {
		return tracedRun(ctx, env, res, walkInputs{cells: fig4Cells(), store: st.srv.svc.TraceStore()})
	}

	paths := hitPaths()
	order := env.shuffled(len(paths))
	var mu sync.Mutex // guards res
	var hitLat, hitLate, coldLat []float64
	sources := map[string]int{}
	var coldRefs int64
	var coldWall time.Duration
	heap := startHeapSampler()
	end := env.deadline()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient()
		interval := time.Second / hitRate
		t0 := time.Now()
		for i := 0; ; i++ {
			due := t0.Add(time.Duration(i) * interval)
			if !due.Before(end) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			hitLate = append(hitLate, ms(time.Since(due)))
			p := paths[order[i%len(order)]]
			r, err := get(c, st.srv.base+p)
			lat := ms(time.Since(due))
			mu.Lock()
			res.Attempted++
			switch {
			case err != nil:
				res.fail("hit %s: %v", p, err)
			case !warmSource(r.source):
				res.fail("hit %s: X-Result-Source %q", p, r.source)
			case string(r.body) != string(st.bodies[p]):
				res.fail("hit %s: body differs from the warm response", p)
			default:
				hitLat = append(hitLat, lat)
				sources[r.source]++
			}
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		c := newClient()
		params := newColdParams(env.opts.seed)
		store := st.srv.svc.TraceStore()
		t0 := time.Now()
		for time.Now().Before(end) {
			cc := params.next()
			n, err := cc.simrefs(store)
			t := time.Now()
			r, gerr := get(c, st.srv.base+cc.path())
			lat := ms(time.Since(t))
			mu.Lock()
			res.Attempted++
			switch {
			case err != nil:
				res.fail("cold %s: %v", cc.query(), err)
			case gerr != nil:
				res.fail("cold %s: %v", cc.query(), gerr)
			case r.source != "computed":
				res.fail("cold %s: X-Result-Source %q", cc.query(), r.source)
			default:
				if err := checkEnvelope(r.body); err != nil {
					res.fail("cold %s: %v", cc.query(), err)
					break
				}
				coldLat = append(coldLat, lat)
				coldRefs += n
			}
			mu.Unlock()
		}
		coldWall = time.Since(t0)
	}()
	wg.Wait()
	res.Figures["peak_heap_mb"] = heap.Stop()
	res.Figures["refs_per_s"] = float64(coldRefs) / coldWall.Seconds()
	// The bounded tail is p90: the p99 of ~1500 hits (also recorded)
	// moves by 15% from run to run on an unchanged program.
	res.Figures["op_p50_ms"] = quantile(hitLat, 0.5)
	res.Figures["op_tail_ms"] = quantile(hitLat, 0.9)
	res.Figures["hit_p50_ms"] = res.Figures["op_p50_ms"]
	res.Figures["hit_p90_ms"] = res.Figures["op_tail_ms"]
	res.Figures["hit_p99_ms"] = quantile(hitLat, 0.99)
	res.Figures["cold_p50_ms"] = quantile(coldLat, 0.5)
	res.Figures["cold_p90_ms"] = quantile(coldLat, 0.9)
	res.Figures["hits"] = float64(len(hitLat))
	res.Figures["colds"] = float64(len(coldLat))
	res.Figures["hit_late_p50_ms"] = quantile(hitLate, 0.5)
	res.Figures["hit_late_max_ms"] = quantile(hitLate, 1)
	for src, n := range sources {
		res.Figures["hits_from_"+src] = float64(n)
	}
	return res, nil
}

// fig4Cells are the cells the cold fig4 requests replay.
func fig4Cells() []cell {
	var out []cell
	for _, pes := range fig4PEs {
		out = append(out, paperCells(pes)...)
	}
	return out
}
