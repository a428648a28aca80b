package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
)

// The served workload is the cached campaign service: an in-process
// campaign.Server with one worker and a shared in-memory store, on
// loopback. The set-up runs the whole workloads builtin once, so the
// store holds every run the traffic asks for except the fresh overrides
// of miss campaigns. One closed-loop client then submits a campaign,
// polls its status until it is done, fetches its results, and only then
// sends the next one. Keying, store lookups, JSONL encoding, HTTP and the
// server's growing campaign table do the work; the simulator does little.

// liveServer is a campaign server listening on a loopback port.
type liveServer struct {
	hs   *http.Server
	base string
	done chan error
}

func startServer(store campaign.ResultStore) (*liveServer, error) {
	cfg, err := campaign.NewConfig(campaign.WithWorkers(1), campaign.WithStore(store))
	if err != nil {
		return nil, err
	}
	srv, err := campaign.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &liveServer{hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its serving goroutine.
func (l *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serveErr := <-l.done; serveErr != http.ErrServerClosed && err == nil {
		err = serveErr
	}
	return err
}

// client is the closed-loop client. With a tracer it records a span
// around every request, sharing the campaign's id.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer

	polls, usefulPolls int
	reqTime            map[string]time.Duration
	reqCount           map[string]int
}

func newClient(base string, tr *tracer) *client {
	return &client{hc: &http.Client{Timeout: 30 * time.Second}, base: base, tr: tr,
		reqTime: map[string]time.Duration{}, reqCount: map[string]int{}}
}

// servedCampaign is one completed exchange with the server.
type servedCampaign struct {
	spec    []byte
	miss    bool
	latency time.Duration
	done    time.Duration // completion, from the start of the timed phase
	rows    int
	sum     [32]byte
}

// do sends one request, reads the whole reply and fails on a non-2xx
// status. With a tracer, the request is a child span of parent.
func (c *client) do(endpoint, method, url string, body []byte, id int64, parent int) ([]byte, error) {
	s := -1
	if c.tr != nil {
		s = c.tr.begin(endpoint, id, parent)
	}
	t0 := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.reqTime[endpoint] += time.Since(t0)
	c.reqCount[endpoint]++
	if s >= 0 {
		c.tr.end(s)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(reply))
	}
	return reply, nil
}

// run submits a spec, polls until the campaign is done and fetches its
// results. Latency runs from the submit to the last result byte.
func (c *client) run(spec []byte, id int64) (servedCampaign, error) {
	sc := servedCampaign{spec: spec}
	root := -1
	if c.tr != nil {
		root = c.tr.begin("bench.campaign", id, -1)
		defer c.tr.end(root)
	}
	t0 := time.Now()
	reply, err := c.do("server.submit", http.MethodPost, c.base+"/v1/campaigns", spec, id, root)
	if err != nil {
		return sc, err
	}
	var sub struct {
		StatusURL  string `json:"status_url"`
		ResultsURL string `json:"results_url"`
	}
	if err := json.Unmarshal(reply, &sub); err != nil {
		return sc, fmt.Errorf("submit reply: %w", err)
	}
	// Poll back to back, without sleeping: the runtime rounds a short
	// sleep up to a millisecond when the thread would otherwise idle, which
	// is longer than a cached campaign takes, so sleeping would measure
	// the timer instead of the server. Each poll is one loopback round
	// trip, which paces the loop.
	for {
		reply, err := c.do("server.status", http.MethodGet, c.base+sub.StatusURL, nil, id, root)
		if err != nil {
			return sc, err
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(reply, &st); err != nil {
			return sc, fmt.Errorf("status reply: %w", err)
		}
		c.polls++
		if st.State == "failed" {
			return sc, fmt.Errorf("campaign failed: %s", st.Error)
		}
		if st.State == "done" {
			c.usefulPolls++
			break
		}
	}
	body, err := c.do("server.results", http.MethodGet, c.base+sub.ResultsURL, nil, id, root)
	if err != nil {
		return sc, err
	}
	sc.latency = time.Since(t0)
	sc.rows = bytes.Count(body, []byte{'\n'})
	sc.sum = sha256.Sum256(body)
	return sc, nil
}

// warmUp runs the whole workloads builtin through the server, filling
// its store with every run the traffic's cached campaigns ask for.
func warmUp(l *liveServer) error {
	spec, err := json.Marshal(campaign.Workloads())
	if err != nil {
		return err
	}
	c := newClient(l.base, nil)
	defer c.hc.CloseIdleConnections()
	_, err = c.run(spec, 0)
	return err
}

// setUpServer starts a server on store and warms it up.
func setUpServer(store campaign.ResultStore) (*liveServer, error) {
	l, err := startServer(store)
	if err != nil {
		return nil, err
	}
	if err := warmUp(l); err != nil {
		l.close()
		return nil, fmt.Errorf("served warm-up: %w", err)
	}
	return l, nil
}

// drive sends campaigns from the seeded generator until the deadline has
// passed and at least one hit and one miss were served, or, when limit is
// positive, exactly limit campaigns. Failed exchanges are counted in o.
func drive(o *outcome, c *client, gen *traffic, seconds float64, limit int) ([]servedCampaign, time.Duration, error) {
	var served []servedCampaign
	hits, misses := 0, 0
	start := time.Now()
	for n := 0; ; n++ {
		if limit > 0 && n == limit {
			break
		}
		if limit <= 0 && time.Since(start).Seconds() >= seconds && hits > 0 && misses > 0 {
			break
		}
		spec, miss := gen.next()
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, 0, err
		}
		sc, err := c.run(body, int64(n+1))
		sc.miss = miss
		sc.done = time.Since(start)
		o.attempted++
		if err != nil {
			o.fail("served campaign %d: %v", n+1, err)
		}
		if miss {
			misses++
		} else {
			hits++
		}
		served = append(served, sc)
	}
	return served, time.Since(start), nil
}

// verifier recomputes each served body as Engine.Execute + WriteJSONL of
// the same spec on an engine of its own. Its store starts empty, so each
// run is simulated cold the first time any campaign asks for it.
// With a tracer, it records a span around each call.
type verifier struct {
	eng      *campaign.Engine
	tr       *tracer
	expected map[string][32]byte
	encode   time.Duration
	rows     int
}

func newVerifier(tr *tracer) (*verifier, error) {
	eng, err := campaign.NewEngine(campaign.Config{Workers: 1, Store: campaign.NewMemoryStore(0)})
	if err != nil {
		return nil, err
	}
	return &verifier{eng: eng, tr: tr, expected: map[string][32]byte{}}, nil
}

// span opens a span when tracing and returns a function that closes it
// and returns its duration.
func (v *verifier) span(name string, id int64, parent int) (int, func() time.Duration) {
	if v.tr == nil {
		t0 := time.Now()
		return -1, func() time.Duration { return time.Since(t0) }
	}
	i := v.tr.begin(name, id, parent)
	return i, func() time.Duration { return v.tr.end(i) }
}

func (v *verifier) sum(spec []byte, id int64) ([32]byte, error) {
	if s, ok := v.expected[string(spec)]; ok {
		return s, nil
	}
	root, endRoot := v.span("bench.verify", id, -1)
	defer endRoot()
	_, end := v.span("campaign.parse", id, root)
	parsed, err := campaign.ParseSpec(spec)
	end()
	if err != nil {
		return [32]byte{}, err
	}
	_, end = v.span("campaign.expand", id, root)
	runs, err := parsed.Expand()
	end()
	if err != nil {
		return [32]byte{}, err
	}
	_, end = v.span("campaign.execute", id, root)
	res, err := v.eng.Execute(runs)
	end()
	if err != nil {
		return [32]byte{}, err
	}
	h := sha256.New()
	_, end = v.span("campaign.encode", id, root)
	err = campaign.WriteJSONL(h, res)
	v.encode += end()
	if err != nil {
		return [32]byte{}, err
	}
	v.rows += len(res)
	var s [32]byte
	copy(s[:], h.Sum(nil))
	v.expected[string(spec)] = s
	return s, nil
}

// verify counts each served campaign whose body differs from the
// reference as a failure. A campaign whose exchange already failed is
// not counted twice.
func (v *verifier) verify(o *outcome, served []servedCampaign) error {
	for i, sc := range served {
		if sc.latency == 0 {
			continue
		}
		want, err := v.sum(sc.spec, int64(i+1))
		if err != nil {
			return fmt.Errorf("served reference for campaign %d: %w", i+1, err)
		}
		if want != sc.sum {
			o.fail("served campaign %d: results body differs from Engine.Execute + WriteJSONL of its spec", i+1)
		}
	}
	return nil
}

// phaseStats summarises the successful campaigns of a timed phase. The
// phase is cut into windows of about one second; rates and medians are
// the median over the windows, so a burst of load from outside the
// benchmark moves them less. The tails pool every sample, since one
// window holds too few for them.
type phaseStats struct {
	rate, rowRate, hitP50, missP50 float64
	hit, miss                      []float64
}

func summarize(served []servedCampaign, wall time.Duration) phaseStats {
	nw := int(wall.Seconds())
	if nw < 1 {
		nw = 1
	}
	width := wall / time.Duration(nw)
	count := make([]float64, nw)
	rows := make([]float64, nw)
	hits := make([][]float64, nw)
	misses := make([][]float64, nw)
	var ps phaseStats
	for _, sc := range served {
		if sc.latency == 0 {
			continue
		}
		w := int(sc.done / width)
		if w >= nw {
			w = nw - 1
		}
		ms := float64(sc.latency) / 1e6
		count[w]++
		rows[w] += float64(sc.rows)
		if sc.miss {
			misses[w] = append(misses[w], ms)
			ps.miss = append(ps.miss, ms)
		} else {
			hits[w] = append(hits[w], ms)
			ps.hit = append(ps.hit, ms)
		}
	}
	var rates, rowRates, hitP50, missP50 []float64
	for w := 0; w < nw; w++ {
		rates = append(rates, count[w]/width.Seconds())
		rowRates = append(rowRates, rows[w]/width.Seconds())
		if len(hits[w]) > 0 {
			hitP50 = append(hitP50, median(hits[w]))
		}
		if len(misses[w]) > 0 {
			missP50 = append(missP50, median(misses[w]))
		}
	}
	ps.rate, ps.rowRate = median(rates), median(rowRates)
	ps.hitP50, ps.missP50 = median(hitP50), median(missP50)
	return ps
}

func runServed(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return traceServed(cfg)
	}
	out := newOutcome()

	// Set-up (server start plus the warm-up pass) takes about a second;
	// it is repeated and the median reported, the first repetition not
	// counted. The last server serves the timed phase.
	var setups []float64
	var l *liveServer
	for i := 0; i < 1+3; i++ {
		if l != nil {
			if err := l.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if l, err = setUpServer(campaign.NewMemoryStore(0)); err != nil {
			return nil, err
		}
		if i > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}

	c := newClient(l.base, nil)
	ac := newAllocCounter()
	b0, o0 := ac.read()
	served, wall, err := drive(out, c, newTraffic(cfg.seed), cfg.seconds, 0)
	b1, o1 := ac.read()
	peak := liveHeapMB() // the server still holds every campaign it served
	c.hc.CloseIdleConnections()
	if cerr := l.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	v, err := newVerifier(nil)
	if err != nil {
		return nil, err
	}
	if err := v.verify(out, served); err != nil {
		return nil, err
	}

	ps := summarize(served, wall)
	n := float64(len(served))
	m := out.metrics
	m["setup_s"] = median(setups)
	m["a_rate_per_s"] = ps.rate
	m["b_rate_per_s"] = ps.rowRate
	m["a_p50_ms"] = ps.hitP50
	m["a_tail_ms"] = percentile(ps.hit, 0.99)
	m["b_p50_ms"] = ps.missP50
	m["b_tail_ms"] = percentile(ps.miss, 0.90)
	m["alloc_mb"] = float64(b1-b0) / (1 << 20) / n * 1000
	m["allocs_per_unit"] = float64(o1-o0) / n
	m["peak_heap_mb"] = peak

	out.name("setup_s", m["setup_s"], "s")
	out.name("campaigns_per_s", m["a_rate_per_s"], "1/s")
	out.name("rows_per_s", m["b_rate_per_s"], "1/s")
	out.name("hit_p50_ms", m["a_p50_ms"], "ms")
	out.name("hit_p99_ms", m["a_tail_ms"], "ms")
	out.name("miss_p50_ms", m["b_p50_ms"], "ms")
	out.name("miss_p90_ms", m["b_tail_ms"], "ms")
	out.name("alloc_mb_per_1000_campaigns", m["alloc_mb"], "MB")
	out.name("allocs_per_campaign", m["allocs_per_unit"], "count")
	out.name("peak_heap_mb", peak, "MB")
	out.notes["mix"] = map[string]any{"campaigns": len(served), "hits": len(ps.hit), "misses": len(ps.miss),
		"miss_fraction": float64(len(ps.miss)) / n, "polls": c.polls, "loop": "closed, 1 client"}
	return out, nil
}

// timingStore times every Get and Put of the store it wraps.
type timingStore struct {
	inner campaign.ResultStore

	mu               sync.Mutex
	gets, hits, puts int
	getTime, putTime time.Duration
}

func (s *timingStore) Get(k campaign.RunKey) (campaign.RunResult, bool) {
	t0 := time.Now()
	r, ok := s.inner.Get(k)
	d := time.Since(t0)
	s.mu.Lock()
	s.gets++
	s.getTime += d
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return r, ok
}

func (s *timingStore) Put(k campaign.RunKey, r campaign.RunResult) {
	t0 := time.Now()
	s.inner.Put(k, r)
	d := time.Since(t0)
	s.mu.Lock()
	s.puts++
	s.putTime += d
	s.mu.Unlock()
}

func (s *timingStore) Stats() campaign.CacheStats { return s.inner.Stats() }

// reset zeroes the counters, e.g. after the warm-up pass.
func (s *timingStore) reset() {
	s.mu.Lock()
	s.gets, s.hits, s.puts, s.getTime, s.putTime = 0, 0, 0, 0, 0
	s.mu.Unlock()
}

// traceServed runs the timed phase untraced, then the same campaigns
// again against a fresh server whose store is wrapped in a timingStore,
// with a span around every request.
func traceServed(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	l, err := setUpServer(campaign.NewMemoryStore(0))
	if err != nil {
		return nil, err
	}
	c := newClient(l.base, nil)
	base, untraced, err := drive(out, c, newTraffic(cfg.seed), cfg.seconds, 0)
	c.hc.CloseIdleConnections()
	if cerr := l.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	store := &timingStore{inner: campaign.NewMemoryStore(0)}
	if l, err = setUpServer(store); err != nil {
		return nil, err
	}
	store.reset()
	tr := newTracer()
	c = newClient(l.base, tr)
	served, traced, err := drive(out, c, newTraffic(cfg.seed), 0, len(base))
	var retained int
	if err == nil {
		var list []byte
		if list, err = c.do("server.list", http.MethodGet, l.base+"/v1/campaigns", nil, 0, -1); err == nil {
			var lr struct {
				Campaigns []json.RawMessage `json:"campaigns"`
			}
			err = json.Unmarshal(list, &lr)
			retained = len(lr.Campaigns)
		}
	}
	c.hc.CloseIdleConnections()
	if cerr := l.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	for i := range served {
		out.check(served[i].sum == base[i].sum, "served campaign %d: traced and untraced bodies differ", i+1)
	}
	v, err := newVerifier(tr)
	if err != nil {
		return nil, err
	}
	if err := v.verify(out, served); err != nil {
		return nil, err
	}

	m := out.metrics
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perCall := func(endpoint string) float64 {
		return div(float64(c.reqTime[endpoint])/1e6, float64(c.reqCount[endpoint]))
	}
	m["server.submit_ms"] = perCall("server.submit")
	m["server.status_ms"] = perCall("server.status")
	m["server.results_ms"] = perCall("server.results")
	m["server.poll_useful_ratio"] = div(float64(c.usefulPolls), float64(c.polls))
	m["server.retained_campaigns"] = float64(retained)
	m["campaign.store_get_ns"] = div(float64(store.getTime), float64(store.gets))
	m["campaign.store_put_ns"] = div(float64(store.putTime), float64(store.puts))
	m["campaign.store_hit_ratio"] = div(float64(store.hits), float64(store.gets))
	m["campaign.encode_ns_per_row"] = div(float64(v.encode), float64(v.rows))
	m["trace.overhead_s"] = (traced - untraced).Seconds()
	out.addSelfTimes(tr)
	path, err := tr.write(cfg.outDir, fmt.Sprintf("spans-served-seed%d.json", cfg.seed))
	if err != nil {
		return nil, err
	}
	out.notes["spans"] = path
	out.notes["untraced_s"] = untraced.Seconds()
	out.notes["traced_s"] = traced.Seconds()
	out.notes["campaigns"] = len(served)
	return out, nil
}
