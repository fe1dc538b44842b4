package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/trace"
)

// serveMix describes one serving workload's request mix and its fixed
// open-loop operating point.
type serveMix struct {
	name string
	// seqRequests is the size of each sequential single-client pass.
	seqRequests int
	// openRate is the open-loop arrival rate, req/s; sloLimit the latency
	// limit at that rate.
	openRate float64
	sloLimit time.Duration
	// hot draws from a Zipf mix over hotVariants warmed traces; otherwise
	// every request is a distinct trace.
	hot bool
}

var (
	missMix = serveMix{name: "serve-miss", seqRequests: 700, openRate: 150, sloLimit: 50 * time.Millisecond}
	hotMix  = serveMix{name: "serve-hot", seqRequests: 1500, openRate: 500, sloLimit: 10 * time.Millisecond, hot: true}
)

// minHotHitRatio is the least share of measured serve-hot responses that
// must be cache hits; below it the mix no longer measures the hit path.
const minHotHitRatio = 0.95

// checkHit checks one 200 response's X-Pg-Cache verdict. Every serve-miss
// request is a trace no earlier request sent, so a hit there means the
// server answered from a cache entry of another trace, or the mix no
// longer measures the miss path; either way it is a failed operation.
func (m serveMix) checkHit(hit bool) error {
	if hit && !m.hot {
		return fmt.Errorf("%s: cache hit on a trace no earlier request sent", m.name)
	}
	return nil
}

// checkHitRatio checks a serving run's measured hit ratio: serve-hot must
// hit the cache on at least minHotHitRatio of its responses.
func (m serveMix) checkHitRatio(hits, oks int64) error {
	if m.hot && oks > 0 && float64(hits) < minHotHitRatio*float64(oks) {
		return fmt.Errorf("%s: cache hit ratio %.4f is below %g", m.name, float64(hits)/float64(oks), minHotHitRatio)
	}
	return nil
}

// request is one generated trace and the response body it must get.
type request struct {
	rid  int // index of the trace in the run's mix (miss) or variant (hot)
	body []byte
	want []byte
}

// serveInputs holds a run's generated traces and their offline bodies.
type serveInputs struct {
	mix    serveMix
	seed   int64
	shapes []shape
	bodies [][]byte // offline trace.Replay + trace.WriteNDJSON per shape
	hot    [][]byte // rendered hot variants
	next   atomic.Int64
}

// offlineBody replays a trace in-process exactly as the server would and
// renders its NDJSON response body.
func offlineBody(text []byte) ([]byte, error) {
	f, err := trace.ParseFile(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	rep, err := trace.Replay(trace.NewMachine(f), f.Events)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.WriteNDJSON(&buf, rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// prepareInputs generates the mix's shapes and computes each expected body
// offline. For the miss mix it also checks, on every shape, that renaming
// object ids leaves the body unchanged — the property that lets one offline
// replay per shape check every distinct request.
func prepareInputs(mix serveMix, seed int64) (*serveInputs, error) {
	in := &serveInputs{mix: mix, seed: seed}
	n := missShapes
	if mix.hot {
		n = hotVariants
	}
	for k := 0; k < n; k++ {
		sh := genShape(seed, k)
		text := sh.render(uint64(k) * idSpan)
		body, err := offlineBody(text)
		if err != nil {
			return nil, fmt.Errorf("offline replay of shape %d: %w", k, err)
		}
		if !mix.hot {
			renamed, err := offlineBody(sh.render(uint64(n+k+1) * idSpan * 7919))
			if err != nil {
				return nil, fmt.Errorf("offline replay of shape %d: %w", k, err)
			}
			if !bytes.Equal(renamed, body) {
				return nil, fmt.Errorf("shape %d: renaming object ids changed the replay body", k)
			}
		}
		in.shapes = append(in.shapes, sh)
		in.bodies = append(in.bodies, body)
		if mix.hot {
			in.hot = append(in.hot, text)
		}
	}
	return in, nil
}

// missAt returns request idx of the miss mix.
func (in *serveInputs) missAt(idx int) request {
	k, base := missRequest(in.seed, idx)
	return request{rid: idx, body: in.shapes[k].render(base), want: in.bodies[k]}
}

// hotAt returns hot variant v.
func (in *serveInputs) hotAt(v int) request {
	return request{rid: v, body: in.hot[v], want: in.bodies[v]}
}

// stream returns a request generator for one client goroutine. Miss
// streams share one counter, so every request of the run is distinct; hot
// streams draw their own seeded Zipf sequence.
func (in *serveInputs) stream(id int) func() request {
	if !in.mix.hot {
		return func() request { return in.missAt(int(in.next.Add(1))) }
	}
	rng := rand.New(rand.NewSource(derive(in.seed, streamZipf, uint64(id))))
	z := rand.NewZipf(rng, zipfS, 1, hotVariants-1)
	return func() request { return in.hotAt(int(z.Uint64())) }
}

// client sends replays to one server over at most nproc connections.
type client struct {
	r   *run
	mix serveMix
	srv *server
	hc  *http.Client
	url string

	oks, hits, bodyBytes, attempts, sheds atomic.Int64
}

const (
	requestTimeout = 10 * time.Second
	maxAttempts    = 5
)

func newClient(r *run, mix serveMix, srv *server) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: r.nproc,
		MaxConnsPerHost:     r.nproc,
		DisableCompression:  true,
	}
	return &client{r: r, mix: mix, srv: srv, url: srv.base + "/replay",
		hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

// do sends one request, retrying sheds (429/503) with backoff, and checks
// the body byte for byte, reading it into buf (one per client goroutine).
// Every failure is recorded on the run.
func (c *client) do(q request, buf *bytes.Buffer) bool {
	c.r.attempted.Add(1)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		c.attempts.Add(1)
		resp, err := c.hc.Post(c.url, "text/plain", bytes.NewReader(q.body))
		if err != nil {
			if c.srv.dead() {
				c.r.fail("request %d: pgserved exited: %s", q.rid, c.srv.exitReason())
			} else {
				c.r.fail("request %d: %v", q.rid, err)
			}
			return false
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		data := buf.Bytes()
		if err != nil {
			c.r.fail("request %d: read body: %v", q.rid, err)
			return false
		}
		switch resp.StatusCode {
		case http.StatusOK:
			if !bytes.Equal(data, q.want) {
				c.r.fail("request %d: body differs from the offline replay (%d vs %d bytes)", q.rid, len(data), len(q.want))
				return false
			}
			hit := resp.Header.Get("X-Pg-Cache") == "hit"
			if err := c.mix.checkHit(hit); err != nil {
				c.r.fail("request %d: %v", q.rid, err)
				return false
			}
			c.oks.Add(1)
			c.bodyBytes.Add(int64(len(data)))
			if hit {
				c.hits.Add(1)
			}
			return true
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			c.sheds.Add(1)
			time.Sleep(retryDelay(resp.Header.Get("Retry-After"), attempt))
		default:
			c.r.fail("request %d: status %d: %.200s", q.rid, resp.StatusCode, data)
			return false
		}
	}
	c.r.fail("request %d: still shed after %d attempts", q.rid, maxAttempts)
	return false
}

// retryDelay is the wait before retrying a shed request: the server's
// Retry-After hint when it is shorter than one second, else a linear
// backoff of 10 ms per attempt.
func retryDelay(header string, attempt int) time.Duration {
	d := 10 * time.Millisecond * time.Duration(attempt+1)
	if secs, err := strconv.Atoi(header); err == nil && secs > 0 && time.Duration(secs)*time.Second < d {
		d = time.Duration(secs) * time.Second
	}
	return d
}

// warmUp is how long a serving run drives the server before measuring.
const warmUp = 3 * time.Second

// serveRounds is how many times a serving run repeats its phases;
// each metric is the median over rounds, so a burst of interference from
// elsewhere on the host moves one round, not the result.
const serveRounds = 5

// runServe is a serving workload: pgserved as a built binary with default
// flags, driven over loopback HTTP. After set-up and warm-up it runs
// serveRounds rounds of a sequential single-client pass (wall_s) and a
// closed loop with nproc clients (rps, cpu_ms_per_op). The traced run
// records spans, turns the server's GC trace on, adds an open loop at the
// mix's fixed rate to each round (p50_ms, tail_ms) and then times the trace
// and pageguard layers in-process on the sequential passes' traces.
func runServe(mix serveMix) func(r *run) error {
	return func(r *run) error {
		in, err := prepareInputs(mix, r.seed)
		if err != nil {
			return err
		}
		// Set-up: launch to first 200 on /healthz. The first server serves
		// the run; each round launches and stops more, so that setup_s, the
		// median over all launches, samples the whole run like the other
		// figures.
		srv, d, err := startServer(r.pgserved, r.traced, r.onExit)
		if err != nil {
			return err
		}
		defer srv.stop()
		setups := []float64{d.Seconds()}
		launch := func() {
			r.attempted.Add(1)
			s, d, err := startServer(r.pgserved, false, r.onExit)
			if err != nil {
				r.fail("set-up launch: %v", err)
				return
			}
			s.stop()
			setups = append(setups, d.Seconds())
		}

		// Warm-up: every hot variant once (the cache holds them all from
		// here on), then a closed loop until the server's heap and cache
		// have grown to their steady size.
		c := newClient(r, mix, srv)
		if mix.hot {
			var buf bytes.Buffer
			for v := 0; v < hotVariants; v++ {
				c.do(in.hotAt(v), &buf)
			}
		}
		r.closedWindow(c, in, &serveStats{}, -1, warmUp)
		measured0 := snapshotClient(c)

		var st serveStats
		closed := time.Duration(float64(r.duration()) * loadShare / serveRounds)
		var open time.Duration
		if r.traced {
			closed, open = closed/2, closed/2
		}
		for round := 0; round < serveRounds && !srv.dead(); round++ {
			for i := 0; i < (setupRepeats-1)/serveRounds; i++ {
				launch()
			}
			r.sequentialPass(c, in, &st, round)
			r.closedWindow(c, in, &st, round, closed)
			if open > 0 {
				r.openWindow(c, in, &st, round, open)
			}
		}
		st.report(r, mix)
		r.set("setup_s", median(setups))

		if mb, err := peakRSSMB(fmt.Sprintf("/proc/%d/status", srv.cmd.Process.Pid)); err == nil {
			r.set("peak_rss_mb", mb)
		} else {
			r.fail("read pgserved peak RSS: %v", err)
		}
		m := snapshotClient(c).minus(measured0)
		if m.oks > 0 {
			r.set("serve.cache_hit_ratio", float64(m.hits)/float64(m.oks))
			r.set("serve.body_kb", float64(m.bodyBytes)/1024/float64(m.oks))
		}
		if m.attempts > 0 {
			r.set("serve.shed_share", float64(m.sheds)/float64(m.attempts))
		}
		if err := mix.checkHitRatio(m.hits, m.oks); err != nil {
			r.fail("%v", err)
		}
		r.note("%s: cache hit ratio %.4f over %d measured responses", mix.name, float64(m.hits)/float64(max(m.oks, 1)), m.oks)
		srv.stop()
		if r.traced {
			return r.probeLayers(in, st.seq)
		}
		return nil
	}
}

// clientCounts is a snapshot of a client's counters.
type clientCounts struct{ oks, hits, bodyBytes, attempts, sheds int64 }

func snapshotClient(c *client) clientCounts {
	return clientCounts{c.oks.Load(), c.hits.Load(), c.bodyBytes.Load(), c.attempts.Load(), c.sheds.Load()}
}

func (a clientCounts) minus(b clientCounts) clientCounts {
	return clientCounts{a.oks - b.oks, a.hits - b.hits, a.bodyBytes - b.bodyBytes, a.attempts - b.attempts, a.sheds - b.sheds}
}

// seqResult keeps the sequential passes' requests and round-trip times for
// the traced run's in-process comparison.
type seqResult struct {
	reqs []request
	rtt  []time.Duration
}

// serveStats gathers a serving run's per-round measurements.
type serveStats struct {
	seq                     seqResult
	walls, rates, cpus, gcs []float64
	// cycles is every closed-loop request's client cycle (ns): from
	// generating the request to having checked its response.
	cycles []float64
	// latency and late are every open-loop request's, pooled over rounds.
	latency, late       []float64
	openSent, sloMisses int
}

// report sets the run's metrics. wall_s and rps are built from per-request
// medians over all rounds: a sequential pass as seqRequests times the median
// round trip, and the closed loop's rate by Little's law as nproc clients
// over the median client cycle. On a shared host the hypervisor takes
// vCPUs away for whole time slices; that stolen time lands in a few
// requests' times, which moves a mean (and a pass's total) by tens of
// percent between runs but not a median. CPU and GC per request are medians
// over rounds, and the open-loop latencies percentiles over all rounds'
// requests.
func (st *serveStats) report(r *run, mix serveMix) {
	var rtts []float64
	for _, d := range st.seq.rtt {
		rtts = append(rtts, float64(d)/1e3)
	}
	r.set("serve.rtt_us", median(rtts))
	r.set("wall_s", float64(mix.seqRequests)*median(rtts)/1e6)
	if cycle := median(st.cycles); cycle > 0 {
		r.set("rps", float64(r.nproc)/(cycle/1e9))
	}
	r.set("cpu_ms_per_op", median(st.cpus))
	r.set("serve.gc_per_req", median(st.gcs))
	r.note("%s: measured per round: sequential pass wall_s %.4g, closed-loop rps %.4g, cpu_ms_per_op %.4g", mix.name, st.walls, st.rates, st.cpus)
	if st.openSent == 0 {
		return
	}
	lat := sortedCopy(st.latency)
	r.set("p50_ms", percentile(lat, 50))
	r.set("tail_ms", percentile(lat, tailPercentile(len(lat))))
	r.set("loadgen.late_ms", percentile(sortedCopy(st.late), 99))
	r.set("slo_miss_share", float64(st.sloMisses)/float64(st.openSent))
	r.note("%s: tail_ms is p%g of %d open-loop requests at %.0f req/s; %d of %d over the %v limit or failed",
		mix.name, tailPercentile(len(lat)), len(lat), mix.openRate, st.sloMisses, st.openSent, mix.sloLimit)
}

// sequentialPass sends mix.seqRequests requests one at a time.
func (r *run) sequentialPass(c *client, in *serveInputs, st *serveStats, round int) {
	next := in.stream(round * (r.nproc + 2))
	var buf bytes.Buffer
	phase := r.rec.begin("serve.sequential", 0, round)
	start := time.Now()
	for i := 0; i < in.mix.seqRequests && !c.srv.dead(); i++ {
		q := next()
		sp := r.rec.begin("serve.request", phase, q.rid)
		t := time.Now()
		c.do(q, &buf)
		st.seq.rtt = append(st.seq.rtt, time.Since(t))
		r.rec.end(sp)
		st.seq.reqs = append(st.seq.reqs, q)
	}
	st.walls = append(st.walls, time.Since(start).Seconds())
	r.rec.end(phase)
}

// closedWindow runs nproc clients back to back for d.
func (r *run) closedWindow(c *client, in *serveInputs, st *serveStats, round int, d time.Duration) {
	srv := c.srv
	cpu0, err0 := srv.cpu()
	gc0 := srv.gcs.Load()
	phase := r.rec.begin("serve.closed", 0, round)
	start := time.Now()
	deadline := start.Add(d)
	var done atomic.Int64
	var wg sync.WaitGroup
	cycles := make([][]float64, r.nproc) // one slice per client goroutine
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		next := in.stream(round*(r.nproc+2) + 1 + w)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) && !srv.dead() {
				t := time.Now()
				q := next()
				sp := r.rec.begin("serve.request", phase, q.rid)
				if c.do(q, &buf) {
					done.Add(1)
				}
				r.rec.end(sp)
				cycles[w] = append(cycles[w], float64(time.Since(t)))
			}
		}()
	}
	wg.Wait()
	for _, cs := range cycles {
		st.cycles = append(st.cycles, cs...)
	}
	elapsed := time.Since(start)
	r.rec.end(phase)
	cpu1, err1 := srv.cpu()
	n := done.Load()
	if n == 0 {
		r.fail("closed loop completed no request")
		return
	}
	st.rates = append(st.rates, float64(n)/elapsed.Seconds())
	if err0 != nil || err1 != nil {
		r.fail("read pgserved CPU time: %v %v", err0, err1)
	} else {
		st.cpus = append(st.cpus, float64(cpu1-cpu0)/1e6/float64(n))
	}
	st.gcs = append(st.gcs, float64(srv.gcs.Load()-gc0)/float64(n))
}

// openWindow sends requests on a seeded Poisson schedule at mix.openRate
// for d, from nproc client goroutines, timing each request from when it
// was due.
func (r *run) openWindow(c *client, in *serveInputs, st *serveStats, round int, d time.Duration) {
	n := int(in.mix.openRate * d.Seconds())
	due := poissonSchedule(derive(in.seed, streamSchedule, uint64(round)), in.mix.openRate, n)
	next := in.stream(round*(r.nproc+2) + 1 + r.nproc)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = next()
	}
	dispatched := make([]time.Duration, n)
	done := make([]time.Duration, n)
	ok := make([]bool, n)
	jobs := make(chan int, n) // sized to the schedule: dispatch never blocks
	phase := r.rec.begin("serve.open", 0, round)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range jobs {
				sp := r.rec.begin("serve.request", phase, reqs[i].rid)
				ok[i] = c.do(reqs[i], &buf)
				done[i] = time.Since(start)
				r.rec.end(sp)
			}
		}()
	}
	for i := range due {
		time.Sleep(time.Until(start.Add(due[i])))
		dispatched[i] = time.Since(start)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	r.rec.end(phase)

	ol := openLoopStats(due, dispatched, done, ok, in.mix.sloLimit)
	st.latency = append(st.latency, ol.latencyMs...)
	st.late = append(st.late, ol.lateMs...)
	st.openSent += n
	st.sloMisses += ol.sloMisses
}

// openLoop summarises one open-loop phase.
type openLoop struct {
	latencyMs []float64 // per completed request, from its due time
	lateMs    []float64 // per request, generator dispatch minus due time
	sloMisses int       // failed or slower than the limit
}

// openLoopStats accounts an open-loop phase. Latency runs from each
// request's due time, not from when it was sent, so a stall also charges
// the requests queued behind it; how late the generator itself dispatched
// is kept apart, as the check that the schedule was honoured.
func openLoopStats(due, dispatched, done []time.Duration, ok []bool, limit time.Duration) openLoop {
	var ol openLoop
	for i := range due {
		ol.lateMs = append(ol.lateMs, float64(dispatched[i]-due[i])/1e6)
		if !ok[i] {
			ol.sloMisses++
			continue
		}
		lat := done[i] - due[i]
		ol.latencyMs = append(ol.latencyMs, float64(lat)/1e6)
		if lat > limit {
			ol.sloMisses++
		}
	}
	return ol
}
