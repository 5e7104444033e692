package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
	"github.com/unilocal/unilocal/internal/sweep"
)

const (
	// clients is the closed loop's concurrency: nproc on the 2-core
	// machines the benchmark targets, so the load never outnumbers the CPUs.
	clients = 2
	// coldPerTen of each block of ten requests are cold, the rest repeat a
	// primed (spec, seed).
	coldPerTen = 2
	// coldSeeds is the number of seeds per spec the cold requests cycle
	// through. Each cold execution stores two bodies (markdown and JSON) in
	// the server's 64-entry response cache, so a pair comes round again only
	// after 4*12-1 other cold pairs have pushed it out. One pass sends every
	// cold pair once, so every pass does the same cold work: cold costs vary
	// by seed, and a pass that took a different slice of the pool would
	// measure which slice it took.
	coldSeeds = 12

	cacheHeader = "X-Localserved-Cache"
	spanHeader  = "X-Layerbench-Span"
)

type pair struct {
	spec int
	seed int64
}

// serveRunner drives serve.Server.ServeHTTP through a loopback listener
// with a closed loop of clients: each sends its next POST /run only after
// the previous reply.
type serveRunner struct {
	raw    [][]byte
	rng    *rand.Rand
	primed []pair
	pool   []pair
	refs   map[pair][]byte

	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	clients []*http.Client

	// tracing is the tracer of the pass in progress, or nil; handled maps a
	// request span ID to its ServeHTTP time while tracing.
	tracing atomic.Pointer[tracer]
	handled sync.Map
}

// newServeRunner computes the reference bodies, starts the server and
// primes one (spec, seed) per spec. The reference for every pair is
// scenario.Render of the same spec and seed, computed in-process.
func newServeRunner(w *workload, seed int64) (*serveRunner, error) {
	raw, err := w.specBytes()
	if err != nil {
		return nil, err
	}
	r := &serveRunner{raw: raw, rng: rand.New(rand.NewSource(seed)), refs: map[pair][]byte{}}
	for i := range raw {
		r.primed = append(r.primed, pair{i, seed})
	}
	for j := 0; j < coldSeeds*len(raw); j++ {
		r.pool = append(r.pool, pair{j % len(raw), seed + 1 + int64(j/len(raw))})
	}
	if err := r.computeRefs(); err != nil {
		return nil, err
	}

	r.srv = serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.url = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: r}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()
	for range clients {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	for _, p := range r.primed {
		if rec := r.do(r.clients[0], p, nil, 0); rec.err != nil {
			r.close()
			return nil, fmt.Errorf("priming: %w", rec.err)
		}
	}
	return r, nil
}

func (r *serveRunner) computeRefs() error {
	specs := make([]*scenario.Spec, len(r.raw))
	for i, data := range r.raw {
		s, err := scenario.Parse(data)
		if err != nil {
			return err
		}
		specs[i] = s
	}
	corpus := graph.NewCorpus()
	for _, p := range append(append([]pair(nil), r.primed...), r.pool...) {
		b, err := scenario.Expand(specs[p.spec:p.spec+1], scenario.ExpandOptions{Corpus: corpus, SeedOffset: p.seed - 1})
		if err != nil {
			return err
		}
		results, _ := sweep.Run(b.Jobs, sweep.Options{})
		var buf bytes.Buffer
		if err := scenario.Render(&buf, b, results); err != nil {
			return fmt.Errorf("reference for %s seed %d: %w", specs[p.spec].Name, p.seed, err)
		}
		r.refs[p] = buf.Bytes()
	}
	return nil
}

// ServeHTTP wraps the server's handler; on traced passes it times the call
// and records it as a child of the client's request span.
func (r *serveRunner) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	tr := r.tracing.Load()
	if tr == nil {
		r.srv.ServeHTTP(w, req)
		return
	}
	parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
	start := time.Now()
	r.srv.ServeHTTP(w, req)
	end := time.Now()
	tr.record("handler", parent, start, end)
	r.handled.Store(parent, end.Sub(start))
}

func (r *serveRunner) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	return err
}

// schedule draws one pass of requests: in every block of ten, coldPerTen
// random slots take the next pair of the cold pool and the rest a random
// primed pair, until the pass has sent the whole pool in order.
func (r *serveRunner) schedule() []pair {
	out := make([]pair, 0, len(r.pool)*10/coldPerTen)
	for next := 0; next < len(r.pool); {
		var cold [10]bool
		for _, k := range r.rng.Perm(10)[:coldPerTen] {
			cold[k] = true
		}
		for _, isCold := range cold {
			if isCold {
				out = append(out, r.pool[next])
				next++
			} else {
				out = append(out, r.primed[r.rng.Intn(len(r.primed))])
			}
		}
	}
	return out
}

// reqRec is one request as the client saw it.
type reqRec struct {
	class   string // the X-Localserved-Cache header: hit, miss or coalesced
	latency time.Duration
	span    int64
	err     error
}

// do sends one POST /run and checks the reply byte for byte against the
// reference rendering of the same spec and seed.
func (r *serveRunner) do(c *http.Client, p pair, tr *tracer, parent int64) reqRec {
	sp := tr.begin("request", parent)
	req, err := http.NewRequest(http.MethodPost, r.url+"/run?seed="+strconv.FormatInt(p.seed, 10), bytes.NewReader(r.raw[p.spec]))
	if err != nil {
		return reqRec{err: err}
	}
	if tr != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	resp, err := c.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rec := reqRec{latency: sp.end(), span: sp.id, err: err}
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		rec.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	case !bytes.Equal(body, r.refs[p]):
		rec.err = fmt.Errorf("body for spec %d seed %d differs from scenario.Render", p.spec, p.seed)
	default:
		rec.class = resp.Header.Get(cacheHeader)
		if rec.class != "hit" && rec.class != "miss" && rec.class != "coalesced" {
			rec.err = fmt.Errorf("unknown %s header %q", cacheHeader, rec.class)
		}
	}
	return rec
}

// pass sends one schedule through the closed loop.
func (r *serveRunner) pass(tr *tracer) (*passResult, error) {
	sched := r.schedule()
	recs := make([]reqRec, len(sched))
	before := r.srv.Snapshot()
	r.tracing.Store(tr)
	root := tr.begin("pass", 0)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				recs[i] = r.do(c, sched[i], tr, root.id)
			}
		}()
	}
	wg.Wait()
	wall := root.end()
	r.tracing.Store(nil)
	after := r.srv.Snapshot()

	out := &passResult{wall: wall}
	var handlerHit, handlerMiss, transport []float64
	for i, rec := range recs {
		out.attempted++
		if rec.err != nil {
			out.fail(fmt.Errorf("request %d: %w", i, rec.err))
			continue
		}
		lat := ms(rec.latency)
		out.ops = append(out.ops, lat)
		switch rec.class {
		case "hit":
			out.hits = append(out.hits, lat)
		case "miss":
			out.colds = append(out.colds, lat)
		}
		if tr == nil {
			continue
		}
		v, ok := r.handled.LoadAndDelete(rec.span)
		if !ok {
			continue
		}
		h := ms(v.(time.Duration))
		switch rec.class {
		case "hit":
			handlerHit = append(handlerHit, h)
			transport = append(transport, lat-h)
		case "miss":
			handlerMiss = append(handlerMiss, h)
		}
	}
	if tr != nil {
		out.layer = map[string]float64{
			"serve.handler_hit_ms":  median(handlerHit),
			"serve.handler_miss_ms": median(handlerMiss),
			"serve.transport_ms":    median(transport),
			"serve.cache_hits":      float64(after.Cache.Hits - before.Cache.Hits),
			"serve.cache_misses":    float64(after.Cache.Misses - before.Cache.Misses),
			"serve.coalesced":       float64(after.ResponsesCoalesced - before.ResponsesCoalesced),
			"serve.rejected":        float64(after.Rejected - before.Rejected),
			"serve.sweep_wall_s":    sweepWall(after) - sweepWall(before),
		}
	}
	return out, nil
}

// sweepWall recovers the server's cumulative sweep wall time from the jobs
// and jobs-per-second it publishes.
func sweepWall(m serve.Metrics) float64 {
	if m.JobsPerSec == 0 {
		return 0
	}
	return float64(m.Jobs) / m.JobsPerSec
}
