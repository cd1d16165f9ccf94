package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nepdvs/internal/cache"
	"nepdvs/internal/core"
	"nepdvs/internal/jobs"
	"nepdvs/internal/server"
	"nepdvs/internal/traffic"
	"nepdvs/internal/workload"
)

// Every sweep is the same 2×2 TDVS grid, one point at a time.
var (
	serveThresholds = []float64{1000, 1200}
	serveWindows    = []int64{40000, 80000}
)

// serveEntryConfig is recorded sweep entry e: ipfwdr or nat at high
// traffic with the standard formulas, each entry its own traffic seed.
func serveEntryConfig(e int, cycles int64) (core.RunConfig, error) {
	bench := workload.IPFwdr
	if e%2 == 1 {
		bench = workload.NAT
	}
	cfg, err := core.DefaultRunConfig(bench, traffic.LevelHigh, int64(5000+e))
	if err != nil {
		return cfg, err
	}
	cfg.Cycles = cycles
	cfg.Formulas = core.StandardFormulas()
	return cfg, nil
}

// stack is an in-process dvsd: a run cache on a fresh directory, a job
// queue with nproc workers and the HTTP server on loopback.
type stack struct {
	dir    string
	store  *cache.Store
	queue  *jobs.Queue
	srv    *httptest.Server
	client *http.Client
}

func newStack(workDir string, nproc int) (*stack, error) {
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	store, err := cache.Open(dir, cache.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	core.SetRunCache(store)
	q := jobs.New(jobs.Options{Workers: nproc, Capacity: 1024})
	srv := httptest.NewServer(server.New(server.Options{Queue: q, Cache: store}))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * nproc}, Timeout: time.Minute}
	return &stack{dir: dir, store: store, queue: q, srv: srv, client: client}, nil
}

func (s *stack) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.queue.Shutdown(ctx)
	core.SetRunCache(nil)
	os.RemoveAll(s.dir)
}

// reqStat is one request's client-side view.
type reqStat struct {
	submitMs, getMs float64
	status          jobs.Status
	deduped         bool
}

// sweep POSTs one sweep, waits for its job and GETs the artifact.
func (s *stack) sweep(body []byte) ([]byte, reqStat, error) {
	var st reqStat
	t0 := now()
	resp, err := s.client.Post(s.srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, st, err
	}
	var sub server.SubmitResponse
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, st, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if derr != nil {
		return nil, st, fmt.Errorf("submit: %w", derr)
	}
	st.submitMs = float64(sinceNs(t0)) / 1e6
	st.deduped = sub.Deduped
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if st.status, err = s.queue.Wait(ctx, sub.ID); err != nil {
		return nil, st, err
	}
	if st.status.State != jobs.StateDone {
		return nil, st, fmt.Errorf("job %s %s: %s", sub.ID, st.status.State, st.status.Err)
	}
	t1 := now()
	art, err := s.client.Get(s.srv.URL + "/v1/jobs/" + sub.ID + "/artifacts/result.json")
	if err != nil {
		return nil, st, err
	}
	b, err := io.ReadAll(art.Body)
	art.Body.Close()
	if err != nil {
		return nil, st, err
	}
	if art.StatusCode != http.StatusOK {
		return nil, st, fmt.Errorf("artifact: HTTP %d", art.StatusCode)
	}
	st.getMs = float64(sinceNs(t1)) / 1e6
	return b, st, nil
}

// sweepBodies renders the request bodies of the given entries.
func sweepBodies(entries []int, cycles int64) ([][]byte, error) {
	out := make([][]byte, len(entries))
	for i, e := range entries {
		cfg, err := serveEntryConfig(e, cycles)
		if err != nil {
			return nil, err
		}
		if out[i], err = json.Marshal(server.SweepRequest{Config: cfg, Thresholds: serveThresholds,
			Windows: serveWindows, Parallelism: 1}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweepAll requests every body with nproc concurrent clients and returns
// the artifacts in body order.
func (s *stack) sweepAll(bodies [][]byte, nproc int) ([][]byte, error) {
	arts := make([][]byte, len(bodies))
	errs := make([]error, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				arts[i], _, errs[i] = s.sweep(bodies[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return arts, nil
}

// recordServe serves every recorded entry once, cold, and digests the
// artifacts.
func recordServe(b *bench) ([]string, error) {
	entries := make([]int, b.sizes.ServeEntries)
	for i := range entries {
		entries[i] = i
	}
	bodies, err := sweepBodies(entries, b.sizes.ServeCycles)
	if err != nil {
		return nil, err
	}
	s, err := newStack(b.workDir, b.nproc)
	if err != nil {
		return nil, err
	}
	defer s.close()
	arts, err := s.sweepAll(bodies, b.nproc)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(arts))
	for i, a := range arts {
		out[i] = sha(a)
	}
	return out, nil
}

// serveWL is a closed loop of nproc clients against an in-process dvsd.
// Three requests in four (a seeded phase) re-request one of the hot sweeps
// set-up warmed, so every point is a cache read; the fourth requests the
// next never-seen entry, so every point simulates and writes the cache.
type serveWL struct {
	b  *bench
	st *stack

	hotBodies [][]byte
	hotArts   [][]byte // set-up copies
	hotBad    []bool   // set-up copy differed from its recorded digest
	coldOrder []int    // entries for cold requests, in request order
	coldNext  atomic.Int64
	phase     int

	tc *timedCache
}

func (w *serveWL) setup(*probe) error {
	w.close()
	sz := w.b.sizes
	rng := rand.New(rand.NewSource(w.b.seed))
	off := rng.Intn(sz.ServeEntries)
	w.phase = rng.Intn(4)
	hot := make([]int, sz.ServeHot)
	for i := range hot {
		hot[i] = (off + i) % sz.ServeEntries
	}
	w.coldOrder = w.coldOrder[:0]
	w.coldNext.Store(0)
	for i := sz.ServeHot; i < sz.ServeEntries; i++ {
		w.coldOrder = append(w.coldOrder, (off+i)%sz.ServeEntries)
	}
	bodies, err := sweepBodies(hot, sz.ServeCycles)
	if err != nil {
		return err
	}
	st, err := newStack(w.b.workDir, w.b.nproc)
	if err != nil {
		return err
	}
	w.st = st
	arts, err := st.sweepAll(bodies, w.b.nproc)
	if err != nil {
		return err
	}
	w.hotBodies, w.hotArts = bodies, arts
	w.hotBad = make([]bool, len(hot))
	for i, a := range arts {
		want := w.b.serveDigest(hot[i])
		if sha(a) != want {
			fmt.Fprintf(os.Stderr, "serve-sweep: hot entry %d digest %s, recorded %s\n", hot[i], sha(a), want)
			w.hotBad[i] = true
		}
	}
	return nil
}

// hotPick spreads hit requests over the hot pool by request index.
func hotPick(seed int64, i int64, n int) int {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(n))
}

// serveRSSAt is the request count at which serve-sweep reads peak RSS.
// The daemon keeps every finished job's artifact, so its memory grows with
// the requests served; read after a fixed number of them, a faster server
// is not charged for serving more in the window.
const serveRSSAt = 2000

// servedReq is one completed request of the measuring loop.
type servedReq struct {
	ms     float64
	doneNs int64 // completion time from the window's start
	cold   bool
	ok     bool
	st     reqStat
}

func (w *serveWL) measure(window time.Duration, p *probe) measurement {
	if p != nil {
		w.tc = &timedCache{inner: w.st.store, p: p}
		core.SetRunCache(w.tc)
		defer core.SetRunCache(w.st.store)
		p.simBegin()
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		reqs []servedReq
		rss  float64
		wg   sync.WaitGroup
	)
	start := now()
	for c := 0; c < w.b.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := w.one(next.Add(1) - 1)
				mu.Lock()
				r.doneNs = sinceNs(start)
				reqs = append(reqs, r)
				if len(reqs) == serveRSSAt {
					rss = peakRSSMB()
				}
				mu.Unlock()
				if now().Sub(start) >= window {
					return
				}
			}
		}()
	}
	wg.Wait()
	m := measurement{rssMB: rss}
	for _, r := range reqs {
		m.attempted++
		if !r.ok {
			m.failed++
			continue
		}
		m.opMs = append(m.opMs, r.ms)
		m.doneNs = append(m.doneNs, r.doneNs)
	}
	if p != nil {
		p.simEnd(m.attempted)
		w.record(p, reqs)
	}
	return m
}

// one issues request i of a window: cold on the seeded phase while unseen
// entries remain, a cache hit on the hot pool otherwise.
func (w *serveWL) one(i int64) servedReq {
	var r servedReq
	var body []byte
	var want string
	hot := -1
	if (i+int64(w.phase))%4 == 0 {
		if c := w.coldNext.Add(1) - 1; c < int64(len(w.coldOrder)) {
			e := w.coldOrder[c]
			bodies, err := sweepBodies([]int{e}, w.b.sizes.ServeCycles)
			if err != nil {
				return r
			}
			body, want, r.cold = bodies[0], w.b.serveDigest(e), true
		}
	}
	if !r.cold {
		hot = hotPick(w.b.seed, i, len(w.hotBodies))
		body = w.hotBodies[hot]
	}
	t := now()
	art, st, err := w.st.sweep(body)
	r.ms = float64(sinceNs(t)) / 1e6
	r.st = st
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "serve-sweep:", err)
	case r.cold:
		r.ok = sha(art) == want
	default:
		r.ok = !w.hotBad[hot] && bytes.Equal(art, w.hotArts[hot])
	}
	if !r.ok && err == nil {
		fmt.Fprintf(os.Stderr, "serve-sweep: request %d (cold %v) artifact differs from its recorded copy\n", i, r.cold)
	}
	return r
}

// record renders the traced window's service-layer metrics.
func (w *serveWL) record(p *probe, reqs []servedReq) {
	var hit, miss, submit, get, wait, exec, write []float64
	deduped := 0
	for _, r := range reqs {
		if !r.ok {
			continue
		}
		if r.cold {
			miss = append(miss, r.ms)
		} else {
			hit = append(hit, r.ms)
		}
		submit = append(submit, r.st.submitMs)
		get = append(get, r.st.getMs)
		wait = append(wait, float64(r.st.status.QueueWaitNs)/1e6)
		exec = append(exec, float64(r.st.status.ExecNs)/1e6)
		write = append(write, float64(r.st.status.ArtifactWriteNs)/1e6)
		if r.st.deduped {
			deduped++
		}
	}
	vals := map[string]float64{
		"serve.hit_p50_ms":           median(hit),
		"serve.hit_p90_ms":           quantile(hit, 0.9),
		"serve.hit_samples":          float64(len(hit)),
		"serve.miss_p50_ms":          median(miss),
		"serve.miss_samples":         float64(len(miss)),
		"server.submit_ms_p50":       median(submit),
		"server.artifact_get_ms_p50": median(get),
		"jobs.queue_wait_ms_p50":     median(wait),
		"jobs.exec_ms_p50":           median(exec),
		"jobs.artifact_ms_p50":       median(write),
		"jobs.deduped":               float64(deduped),
	}
	tc := w.tc
	tc.mu.Lock()
	vals["cache.lookup_us_p50"] = median(tc.lookupUs)
	vals["cache.store_us_p50"] = median(tc.storeUs)
	vals["cache.hit_ratio"] = ratio(float64(tc.hits), float64(len(tc.lookupUs)))
	tc.mu.Unlock()
	p.mu.Lock()
	maps.Copy(p.values, vals)
	p.mu.Unlock()
}

func (w *serveWL) layers(p *probe) (map[string]float64, error) {
	cfg, err := serveEntryConfig(w.coldOrder[0], w.b.sizes.ServeCycles)
	if err != nil {
		return nil, err
	}
	var points []core.RunConfig
	for _, pt := range core.TDVSGrid(serveThresholds, serveWindows) {
		points = append(points, core.TDVSPointConfig(cfg, pt))
	}
	gen, err := sampleGenMs(points[0])
	if err != nil {
		return nil, err
	}
	key, err := sampleRunKeyUs(points)
	if err != nil {
		return nil, err
	}
	out := p.simLayers(gen, w.b.nproc)
	p.mu.Lock()
	maps.Copy(out, p.values)
	p.mu.Unlock()
	out["core.runkey_us"] = key
	traced, err := traceProbe(points[0])
	if err != nil {
		return nil, err
	}
	maps.Copy(out, traced)
	return out, nil
}

func (w *serveWL) close() {
	if w.st != nil {
		w.st.close()
		w.st = nil
	}
}

// timedCache times the run cache's lookups and stores, and folds every
// stored run's metrics snapshot into the probe: the cache sees exactly the
// runs that simulated, so hits are not counted as simulated work.
type timedCache struct {
	inner *cache.Store
	p     *probe

	mu                sync.Mutex
	lookupUs, storeUs []float64
	hits              int
}

func (c *timedCache) Lookup(key string) (*core.CachedRun, bool) {
	t := now()
	cr, ok := c.inner.Lookup(key)
	us := float64(sinceNs(t)) / 1e3
	c.mu.Lock()
	c.lookupUs = append(c.lookupUs, us)
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	return cr, ok
}

func (c *timedCache) Store(key string, material []byte, cr *core.CachedRun) {
	c.p.mergeRun(cr.Metrics)
	t := now()
	c.inner.Store(key, material, cr)
	us := float64(sinceNs(t)) / 1e3
	c.mu.Lock()
	c.storeUs = append(c.storeUs, us)
	c.mu.Unlock()
}
