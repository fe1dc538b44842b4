package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"

	"repro/internal/serve"
)

// The -servebench report: the content-hash replay cache, measured against
// the one configuration whose numbers are ground truth — a fresh machine per
// request with no cache.
//
// Two server configurations replay the same Zipf-distributed trace mix:
//
//	fresh       cache off — every request boots a machine and simulates
//	warm_cached cache on  — repeat traces are served from the content-hash
//	            replay cache
//
// Artifacts made while the server could fork machines from a copy-on-write
// snapshot (BENCH_pr9.json) also carry a third side, warm: cache off, every
// request on a fork. It is validated when present and no longer produced.
//
// Byte-parity is enforced inside the load generator on every request of
// every side: any response that diverges from the offline pgtrace -ndjson
// rendering fails the benchmark. The cache is therefore a pure acceleration
// — the speedup below moves zero simulated numbers.
//
// Wall timings are host-dependent, so -check-bench gates relations, not
// absolutes: the warm_cached side must be faster than the fresh side on the
// same mix, the cache-off sides must report a zero hit ratio, and the cached
// side's hit ratio must reflect the Zipf skew. How much faster is reported,
// not gated: the ratio falls with every replay speed-up, so a fixed floor on
// it fails working code. The cost of a hit is gated absolutely instead, by
// serve's TestCacheHitAllocBudget, and the cost of a miss by trace's
// TestReplayMissAllocBudget.

// serveBenchDoc is the -servebench export (schema pgbench-serving/v1).
type serveBenchDoc struct {
	Schema string `json:"schema"`
	// Events is the base trace's event count; Distinct is the number of
	// trace variants in the mix; Dist/ZipfS describe the draw distribution.
	Events   int     `json:"events"`
	Distinct int     `json:"distinct"`
	Dist     string  `json:"dist"`
	ZipfS    float64 `json:"zipf_s"`
	// Clients is the concurrent load-generator client count.
	Clients int `json:"clients"`

	Fresh serveBenchSide `json:"fresh"`
	// Warm is the snapshot-fork side of older artifacts; nil in new ones.
	Warm       *serveBenchSide `json:"warm,omitempty"`
	WarmCached serveBenchSide  `json:"warm_cached"`

	// SpeedupWarm and SpeedupWarmCached are the req/s ratios against the
	// fresh side. SpeedupWarm is set only alongside Warm.
	// SpeedupWarmCached must exceed 1.
	SpeedupWarm       float64 `json:"speedup_warm,omitempty"`
	SpeedupWarmCached float64 `json:"speedup_warm_cached"`
}

// serveBenchSide is one server configuration's soak result.
type serveBenchSide struct {
	// Requests is the number of 200-OK replays completed (every one
	// byte-checked against the offline replay).
	Requests int `json:"requests"`
	// Secs is the wall-clock duration of the side's run.
	Secs float64 `json:"secs"`
	// Reqps is sustained throughput: requests / secs.
	Reqps float64 `json:"reqps"`
	// P50Micros and P99Micros are request-latency percentiles, retries
	// included, in microseconds.
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
	// ShedRate is 429-shed responses per completed request (each shed was
	// retried; the run fails if retries exhaust).
	ShedRate float64 `json:"shed_rate"`
	// CacheHitRatio is X-Pg-Cache:hit responses per completed request —
	// exactly zero on the cache-off sides.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
}

// serveBenchOpts sizes a -servebench run.
type serveBenchOpts struct {
	// requests is the warm_cached soak length. freshRequests sizes the
	// full-simulation fresh side: its throughput is a per-request
	// property, so it is measured, not soaked.
	requests, freshRequests int
	clients                 int
	distinct                int
}

// serveBenchTrace synthesizes one request's workload: n multi-page objects
// cycled through alloc/write/read/free — heavy on page mapping and shadow
// management, the costs the cache elides — plus a few dangling reads so
// responses carry detections and trap reports, keeping the byte-parity
// check meaningful. Detections are sparse on purpose: each one
// serializes a full forensic report, and a body dominated by report bytes
// would measure loopback bandwidth instead of the server.
func serveBenchTrace(n int) []byte {
	var b bytes.Buffer
	b.WriteString("# servebench request workload\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "a %d %d\nw %d 0\nr %d %d\nf %d\n", i, 49152+(i%7)*16384, i, i, (i%3)*8, i)
		if i%80 == 0 {
			fmt.Fprintf(&b, "r %d 0\n", i) // dangling read -> detection
		}
	}
	return b.Bytes()
}

// runServeSide boots one in-process server configuration, drives the load
// mix through it, and returns the measured side.
func runServeSide(name string, cfg serve.Config, traces [][]byte, requests, clients int) (serveBenchSide, error) {
	fmt.Printf("servebench: %s: %d requests, %d clients...\n", name, requests, clients)
	s := serve.New(cfg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	rep, err := serve.RunLoad(serve.LoadOptions{
		URL:         srv.URL,
		Traces:      traces,
		Dist:        "zipf",
		Requests:    requests,
		Concurrency: clients,
	})
	if err != nil {
		return serveBenchSide{}, fmt.Errorf("%s side: %w", name, err)
	}
	secs := rep.Elapsed.Seconds()
	side := serveBenchSide{
		Requests:      rep.Requests,
		Secs:          secs,
		Reqps:         float64(rep.Requests) / secs,
		P50Micros:     float64(rep.P50.Microseconds()),
		P99Micros:     float64(rep.P99.Microseconds()),
		ShedRate:      float64(rep.Shed) / float64(rep.Requests),
		CacheHitRatio: float64(rep.CacheHits) / float64(rep.Requests),
	}
	fmt.Printf("servebench: %s: %.0f req/s, p50=%s p99=%s, shed %.3f, cache hit %.3f\n",
		name, side.Reqps, rep.P50, rep.P99, side.ShedRate, side.CacheHitRatio)
	return side, nil
}

// runServeBench measures the two configurations and writes the report to
// path. A cache slower than fresh replay fails here as well as in
// -check-bench, so it fails the regeneration, not just the validation.
func runServeBench(path string, o serveBenchOpts) error {
	if o.requests <= 0 {
		o.requests = 200000
	}
	if o.freshRequests <= 0 {
		o.freshRequests = 20000
	}
	if o.clients <= 0 {
		o.clients = 16
	}
	if o.distinct <= 0 {
		o.distinct = 32
	}
	base := serveBenchTrace(160)
	traces, err := serve.TraceVariants(base, o.distinct)
	if err != nil {
		return err
	}
	events := bytes.Count(base, []byte("\n"))

	fresh, err := runServeSide("fresh", serve.Config{}, traces, o.freshRequests, o.clients)
	if err != nil {
		return err
	}
	cached, err := runServeSide("warm_cached",
		serve.Config{CacheEntries: 1024}, traces, o.requests, o.clients)
	if err != nil {
		return err
	}

	doc := serveBenchDoc{
		Schema:            "pgbench-serving/v1",
		Events:            events,
		Distinct:          o.distinct,
		Dist:              "zipf",
		ZipfS:             1.2,
		Clients:           o.clients,
		Fresh:             fresh,
		WarmCached:        cached,
		SpeedupWarmCached: cached.Reqps / fresh.Reqps,
	}
	if doc.SpeedupWarmCached <= 1 {
		return fmt.Errorf("servebench: warm_cached sustained %.0f req/s vs fresh %.0f — %.2fx, the cache is no faster",
			cached.Reqps, fresh.Reqps, doc.SpeedupWarmCached)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: cache %.2fx over fresh (%.0f vs %.0f req/s, hit ratio %.3f)\n",
		path, doc.SpeedupWarmCached, cached.Reqps, fresh.Reqps, cached.CacheHitRatio)
	return nil
}

// checkServeBench validates a -servebench artifact: shape sanity per side
// (the warm side only when the artifact has one), zero hit ratio where the
// cache was off, a skew-consistent hit ratio where it was on, speedups
// consistent with the recorded throughputs, and a cache faster than fresh.
func checkServeBench(path string, doc *serveBenchDoc) error {
	if doc.Events <= 0 || doc.Distinct <= 0 || doc.Clients <= 0 {
		return fmt.Errorf("%s: malformed run shape (events=%d distinct=%d clients=%d)",
			path, doc.Events, doc.Distinct, doc.Clients)
	}
	if doc.Dist != "zipf" {
		return fmt.Errorf("%s: dist %q, want zipf — the soak must exercise cache skew", path, doc.Dist)
	}
	type namedSide struct {
		name string
		s    serveBenchSide
		// speedup is the recorded req/s ratio against the fresh side.
		speedup float64
	}
	sides := []namedSide{{"fresh", doc.Fresh, 1}, {"warm_cached", doc.WarmCached, doc.SpeedupWarmCached}}
	if doc.Warm != nil {
		sides = append(sides, namedSide{"warm", *doc.Warm, doc.SpeedupWarm})
	}
	for _, side := range sides {
		s := side.s
		if s.Requests <= 0 {
			return fmt.Errorf("%s: %s completed no requests", path, side.name)
		}
		for field, v := range map[string]float64{
			"secs": s.Secs, "reqps": s.Reqps, "p50_micros": s.P50Micros, "p99_micros": s.P99Micros,
		} {
			if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("%s: %s %s = %v", path, side.name, field, v)
			}
		}
		if s.P99Micros < s.P50Micros {
			return fmt.Errorf("%s: %s p99 (%g) below p50 (%g)", path, side.name, s.P99Micros, s.P50Micros)
		}
		if s.ShedRate < 0 || math.IsInf(s.ShedRate, 0) || math.IsNaN(s.ShedRate) {
			return fmt.Errorf("%s: %s shed_rate = %v", path, side.name, s.ShedRate)
		}
		if reqps := float64(s.Requests) / s.Secs; math.Abs(reqps-s.Reqps) > reqps*0.01 {
			return fmt.Errorf("%s: %s reqps %g inconsistent with %d requests in %gs",
				path, side.name, s.Reqps, s.Requests, s.Secs)
		}
		if side.name != "warm_cached" && s.CacheHitRatio != 0 {
			return fmt.Errorf("%s: %s ran with the cache off but reports hit ratio %g",
				path, side.name, s.CacheHitRatio)
		}
		if want := s.Reqps / doc.Fresh.Reqps; math.Abs(side.speedup-want) > want*0.01 {
			return fmt.Errorf("%s: speedup_%s %g inconsistent with recorded throughputs (want %g)",
				path, side.name, side.speedup, want)
		}
	}
	// With a Zipf mix of `distinct` variants against a far larger cache, at
	// most one miss per variant is expected; gate loosely at half.
	if hr := doc.WarmCached.CacheHitRatio; hr < 0.5 || hr > 1 {
		return fmt.Errorf("%s: warm_cached hit ratio %g outside [0.5, 1] — the cache is not absorbing the Zipf skew", path, hr)
	}
	if doc.SpeedupWarmCached <= 1 {
		return fmt.Errorf("%s: warm_cached speedup %.2fx — the cache is no faster than fresh replay",
			path, doc.SpeedupWarmCached)
	}
	checked := doc.Fresh.Requests + doc.WarmCached.Requests
	if doc.Warm != nil {
		checked += doc.Warm.Requests
	}
	fmt.Printf("%s: ok (cache %.2fx over fresh, hit ratio %.3f, %d requests byte-checked)\n",
		path, doc.SpeedupWarmCached, doc.WarmCached.CacheHitRatio, checked)
	return nil
}
