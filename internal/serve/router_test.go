package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/trace"
)

// routerFixture boots n cached backends and a router over them, returning
// the router's test server plus the backend servers and their Server handles.
func routerFixture(t *testing.T, n int) (*Router, *httptest.Server, []*Server, []*httptest.Server) {
	t.Helper()
	var urls []string
	var servers []*Server
	var backends []*httptest.Server
	for i := 0; i < n; i++ {
		s := New(Config{Snapshots: true, CacheEntries: 64})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, s)
		backends = append(backends, ts)
		urls = append(urls, ts.URL)
	}
	rt, err := NewRouter(RouterConfig{
		Backends: urls,
		// Long interval: tests trigger sweeps explicitly for determinism.
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Drain(ctx)
	})
	return rt, front, servers, backends
}

// distinctTraces builds n traces with distinct canonical renderings.
func distinctTraces(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = slowTrace(4 + i)
	}
	return out
}

// TestRouterConsistentRouting: each trace's repeats land on one stable
// backend, responses stay byte-identical to the offline replay through the
// proxy, and with enough distinct traces both backends take traffic.
func TestRouterConsistentRouting(t *testing.T) {
	_, front, _, _ := routerFixture(t, 2)
	seen := map[string]bool{}
	for i, tr := range distinctTraces(16) {
		want, err := offlineNDJSON(tr, false)
		if err != nil {
			t.Fatal(err)
		}
		backend := ""
		for rep := 0; rep < 3; rep++ {
			resp, body := postReplay(t, front.URL, tr)
			if resp.StatusCode != 200 {
				t.Fatalf("trace %d rep %d: %s: %s", i, rep, resp.Status, body)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("trace %d rep %d: routed response diverged from offline replay", i, rep)
			}
			got := resp.Header.Get("X-Pg-Backend")
			if got == "" {
				t.Fatalf("trace %d rep %d: response missing X-Pg-Backend", i, rep)
			}
			if backend == "" {
				backend = got
			} else if got != backend {
				t.Errorf("trace %d: repeats split across %s and %s — routing is not consistent", i, backend, got)
			}
			wantState := "miss"
			if rep > 0 {
				wantState = "hit"
			}
			if state := resp.Header.Get("X-Pg-Cache"); state != wantState {
				t.Errorf("trace %d rep %d: X-Pg-Cache %q, want %q (cache locality should survive routing)",
					i, rep, state, wantState)
			}
		}
		seen[backend] = true
	}
	if len(seen) != 2 {
		t.Errorf("16 distinct traces all routed to %d backend(s), want spread across 2", len(seen))
	}
}

// TestRouterFailoverAndDrainAwareness: a draining backend leaves the ring
// (its keys slide to the survivor), and so does a dead one. Recovery puts a
// backend back in the ring.
func TestRouterFailoverAndDrainAwareness(t *testing.T) {
	rt, front, servers, backends := routerFixture(t, 2)
	traces := distinctTraces(8)

	// Drain backend 0: every request must now land on backend 1.
	servers[0].SetDraining(true)
	rt.sweepHealth()
	for i, tr := range traces {
		resp, body := postReplay(t, front.URL, tr)
		if resp.StatusCode != 200 {
			t.Fatalf("draining trace %d: %s: %s", i, resp.Status, body)
		}
		if got := resp.Header.Get("X-Pg-Backend"); got != backends[1].URL {
			t.Errorf("trace %d routed to %s while backend 0 drains, want %s", i, got, backends[1].URL)
		}
	}
	var hb routerHealth
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&hb)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hb.Healthy != 1 || len(hb.InRing) != 1 || hb.InRing[0] != backends[1].URL {
		t.Errorf("router healthz during drain = %+v, want only %s in ring", hb, backends[1].URL)
	}

	// Recover backend 0, then kill backend 1 outright: keys must fail over.
	servers[0].SetDraining(false)
	backends[1].Close()
	rt.sweepHealth()
	for i, tr := range traces {
		resp, body := postReplay(t, front.URL, tr)
		if resp.StatusCode != 200 {
			t.Fatalf("failover trace %d: %s: %s", i, resp.Status, body)
		}
		if got := resp.Header.Get("X-Pg-Backend"); got != backends[0].URL {
			t.Errorf("trace %d routed to %s after backend 1 died, want %s", i, got, backends[0].URL)
		}
	}
}

// TestRouterNoBackend: with every backend out of the ring the router sheds
// with 503 and a structured no-backend error rather than hanging.
func TestRouterNoBackend(t *testing.T) {
	rt, front, servers, _ := routerFixture(t, 1)
	servers[0].SetDraining(true)
	rt.sweepHealth()
	resp, body := postReplay(t, front.URL, slowTrace(4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %s, want 503", resp.Status)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("unmarshal error body: %v (%s)", err, body)
	}
	if eb.Code != ErrCodeNoBackend {
		t.Errorf("error code %q, want %q", eb.Code, ErrCodeNoBackend)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("no-backend shed missing Retry-After")
	}
	if rt.noBackend.Load() == 0 {
		t.Error("pgrouter_no_backend_total not incremented")
	}
}

// saturate fills the admission slots of s, a 1-worker, 1-queue-slot
// server at url, with two slow replays and returns once both are admitted;
// the caller waits on the returned group. Probing before then is racy: a
// probe that arrives between the two takes the queue slot, the second
// replay is shed instead, and the server never fills again.
func saturate(t *testing.T, s *Server, url string) *sync.WaitGroup {
	t.Helper()
	slow := slowTrace(20000)
	hold := &sync.WaitGroup{}
	for i := 0; i < 2; i++ {
		hold.Add(1)
		go func() {
			defer hold.Done()
			postReplay(t, url, slow)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(s.queue) < cap(s.queue) {
		if time.Now().After(deadline) {
			t.Fatal("the two slow replays were never admitted together")
		}
		time.Sleep(time.Millisecond)
	}
	return hold
}

// TestRouterPropagatesRetryAfter is the regression test for shed handling
// under the router: a saturated backend's 429 must reach the client through
// the proxy with its Retry-After hint intact, so load-generator retries
// against the router work exactly as they do against a bare backend.
func TestRouterPropagatesRetryAfter(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	backend := httptest.NewServer(s.Handler())
	defer backend.Close()
	rt, err := NewRouter(RouterConfig{Backends: []string{backend.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Fill both admission slots with slow replays posted directly to the
	// backend, then hit the router until the shed surfaces.
	hold := saturate(t, s, backend.URL)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := postReplay(t, front.URL, slowTrace(4))
		if resp.StatusCode == http.StatusTooManyRequests {
			if got := resp.Header.Get("Retry-After"); got != "2" {
				t.Errorf("Retry-After through the router = %q, want %q", got, "2")
			}
			if resp.Header.Get("X-Pg-Backend") != backend.URL {
				t.Error("shed response did not come through the proxy")
			}
			var eb ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Code != ErrCodeQueueFull {
				t.Errorf("shed body = %s, want code %q", body, ErrCodeQueueFull)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed a 429 through the router while the backend was saturated")
		}
	}
	hold.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatalf("router drain: %v", err)
	}
}

// TestRouterLoadRetriesSheds drives the bundled load generator at a tiny
// backend through the router: sheds must occur and every request must still
// complete byte-identical — the end-to-end proof that 429 retries work
// against the router.
func TestRouterLoadRetriesSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	backend := httptest.NewServer(s.Handler())
	defer backend.Close()
	rt, err := NewRouter(RouterConfig{Backends: []string{backend.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Deterministically saturate the backend first — hold both admission
	// slots with slow replays and wait until a probe observes the 429 — so
	// the load run is guaranteed to shed even on a starved CPU where its
	// own clients never overlap.
	hold := saturate(t, s, backend.URL)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := postReplay(t, front.URL, slowTrace(4))
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backend never saturated before the load run")
		}
	}

	rep, err := RunLoad(LoadOptions{
		URL: front.URL, Trace: slowTrace(400), Requests: 24, Concurrency: 8,
	})
	hold.Wait()
	if err != nil {
		t.Fatalf("load through router: %v (%v)", err, rep)
	}
	if rep.Requests != 24 || rep.Mismatches != 0 {
		t.Fatalf("load report: %v", rep)
	}
	if rep.Shed == 0 {
		t.Error("a 1-slot backend under 8 clients shed nothing — the retry path was not exercised")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatalf("router drain: %v", err)
	}
}

// TestRouterZipfMixAcrossBackends: the Zipf load mix rides through the router
// with byte-parity intact and cache hits accumulating on the hot traces.
func TestRouterZipfMixAcrossBackends(t *testing.T) {
	_, front, _, _ := routerFixture(t, 2)
	traces, err := TraceVariants(slowTrace(40), 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(LoadOptions{
		URL: front.URL, Traces: traces, Dist: "zipf", Requests: 64, Concurrency: 4,
	})
	if err != nil {
		t.Fatalf("zipf load through router: %v (%v)", err, rep)
	}
	if rep.Requests != 64 || rep.Mismatches != 0 {
		t.Fatalf("load report: %v", rep)
	}
	if rep.CacheHits == 0 {
		t.Error("zipf mix over 8 variants produced zero cache hits across 64 requests")
	}
}

// TestTraceVariantsDistinct: every derived variant parses and has a distinct
// canonical rendering (distinct cache key, distinct routing hash).
func TestTraceVariantsDistinct(t *testing.T) {
	variants, err := TraceVariants(slowTrace(10), 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, v := range variants {
		tf, err := trace.ParseFile(bytes.NewReader(v))
		if err != nil {
			t.Fatalf("variant %d does not parse: %v", i, err)
		}
		var b bytes.Buffer
		tf.Format(&b)
		if prev, dup := seen[b.String()]; dup {
			t.Errorf("variants %d and %d share a canonical rendering", prev, i)
		}
		seen[b.String()] = i
	}
}

// TestRouterDrainFlipRace: a backend flips draining→healthy within one sweep
// interval while health sweeps run concurrently with live traffic. The
// invariant under the race: with backend 0 healthy throughout, no request is
// ever shed with no-backend — whichever side of the flip a sweep observes,
// the ring always holds at least one member. Once the flapping stops and a
// final sweep lands, the recovered backend's keys return to it.
func TestRouterDrainFlipRace(t *testing.T) {
	rt, front, servers, backends := routerFixture(t, 2)

	// Find a trace that routes to backend 1, so recovery is observable.
	var probe []byte
	for _, tr := range distinctTraces(16) {
		resp, body := postReplay(t, front.URL, tr)
		if resp.StatusCode != 200 {
			t.Fatalf("probe: %s: %s", resp.Status, body)
		}
		if resp.Header.Get("X-Pg-Backend") == backends[1].URL {
			probe = tr
			break
		}
	}
	if probe == nil {
		t.Fatal("no trace hashed to backend 1 across 16 candidates")
	}

	// Drain backend 1 and sweep: the probe's key slides to backend 0.
	servers[1].SetDraining(true)
	rt.sweepHealth()
	if resp, body := postReplay(t, front.URL, probe); resp.StatusCode != 200 {
		t.Fatalf("during drain: %s: %s", resp.Status, body)
	} else if got := resp.Header.Get("X-Pg-Backend"); got != backends[0].URL {
		t.Fatalf("drained key routed to %s, want survivor %s", got, backends[0].URL)
	}

	// Race: one goroutine flaps backend 1's draining state, one sweeps
	// continuously, and client goroutines hammer the router. Every response
	// must be a 200 — never a no-backend shed — because backend 0 stays in
	// the ring no matter which flap state a sweep captures.
	shedBefore := rt.noBackend.Load()
	stop := make(chan struct{})
	var race sync.WaitGroup
	race.Add(2)
	go func() {
		defer race.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				servers[1].SetDraining(i%2 == 0)
			}
		}
	}()
	go func() {
		defer race.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rt.sweepHealth()
			}
		}
	}()
	var clients sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < 25; i++ {
				resp, body := postReplay(t, front.URL, probe)
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("mid-flap request: %s: %s", resp.Status, body)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	race.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if shed := rt.noBackend.Load(); shed != shedBefore {
		t.Errorf("no-backend sheds grew %d→%d during the flap with a healthy backend in the ring",
			shedBefore, shed)
	}

	// Flapping over: backend 1 settles healthy, and after one clean sweep its
	// keys come home.
	servers[1].SetDraining(false)
	rt.sweepHealth()
	resp, body := postReplay(t, front.URL, probe)
	if resp.StatusCode != 200 {
		t.Fatalf("after recovery: %s: %s", resp.Status, body)
	}
	if got := resp.Header.Get("X-Pg-Backend"); got != backends[1].URL {
		t.Errorf("recovered key routed to %s, want %s back in the ring", got, backends[1].URL)
	}
}
