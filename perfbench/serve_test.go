package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// A cache hit on serve-miss is a failed operation; on serve-hot it is
// what the mix is for.
func TestCacheHitOnMissMixFailsTheRequest(t *testing.T) {
	want := []byte("body\n")
	for _, tc := range []struct {
		mix    serveMix
		hit    bool
		failed int64
	}{
		{missMix, true, 1},
		{missMix, false, 0},
		{hotMix, true, 0},
		{hotMix, false, 0},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if tc.hit {
				w.Header().Set("X-Pg-Cache", "hit")
			} else {
				w.Header().Set("X-Pg-Cache", "miss")
			}
			w.Write(want)
		}))
		r := &run{nproc: 1, vals: map[string]float64{}}
		c := newClient(r, tc.mix, &server{exited: make(chan struct{}), base: ts.URL})
		var buf bytes.Buffer
		ok := c.do(request{rid: 1, body: []byte("a 1 8\n"), want: want}, &buf)
		ts.Close()
		if got := r.failed.Load(); got != tc.failed || ok != (tc.failed == 0) {
			t.Errorf("%s, hit=%v: ok=%v failed=%d, want failed=%d", tc.mix.name, tc.hit, ok, got, tc.failed)
		}
	}
}

func TestHitRatioCheck(t *testing.T) {
	for _, tc := range []struct {
		mix       serveMix
		hits, oks int64
		fails     bool
	}{
		{hotMix, 950, 1000, false},
		{hotMix, 1000, 1000, false},
		{hotMix, 949, 1000, true},
		{hotMix, 0, 1000, true},
		{missMix, 0, 1000, false},
	} {
		if err := tc.mix.checkHitRatio(tc.hits, tc.oks); (err != nil) != tc.fails {
			t.Errorf("%s %d/%d: err=%v, want failure %v", tc.mix.name, tc.hits, tc.oks, err, tc.fails)
		}
	}
}
