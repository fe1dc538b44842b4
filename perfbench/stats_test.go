package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1}, {0, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single = %g, want 7", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {1200, 99}, {200, 95}, {199, 90}, {121, 90}, {100, 90},
		{99, 75}, {40, 75}, {39, 50}, {20, 50}, {5, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// Whatever rung is chosen, at least minBeyond samples lie above the
	// value percentile reports (from 20 samples on, p50 always qualifies).
	var s []float64
	for n := 1; n < 3000; n++ {
		s = append(s, float64(n))
		if n < 20 {
			continue
		}
		p := tailPercentile(n)
		if beyond := n - int(percentile(s, p)); beyond < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond", n, p, beyond)
		}
	}
}

// Expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesAndMedianMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	} {
		got := quartiles(c.data)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
	for _, c := range []struct {
		data []float64
		want float64
	}{{nil, 0}, {[]float64{4}, 4}, {[]float64{3, 1, 2}, 2}, {[]float64{16.29, 13}, 14.645}} {
		if got := median(c.data); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("median(%v) = %g, want %g", c.data, got, c.want)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare = %g, want 1", got)
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}
	// Request 1 was dispatched 2 ms late and queued behind a stall: its
	// latency counts from its due time, not from when it went out.
	dispatched := []time.Duration{0, 12 * ms, 20 * ms, 30 * ms}
	done := []time.Duration{5 * ms, 40 * ms, 45 * ms, 31 * ms}
	ok := []bool{true, true, true, false}
	ol := openLoopStats(due, dispatched, done, ok, 20*ms)

	wantLat := []float64{5, 30, 25}
	if len(ol.latencyMs) != len(wantLat) {
		t.Fatalf("latencies %v, want %v", ol.latencyMs, wantLat)
	}
	for i := range wantLat {
		if ol.latencyMs[i] != wantLat[i] {
			t.Errorf("latency[%d] = %g ms, want %g", i, ol.latencyMs[i], wantLat[i])
		}
	}
	wantLate := []float64{0, 2, 0, 0}
	for i := range wantLate {
		if ol.lateMs[i] != wantLate[i] {
			t.Errorf("late[%d] = %g ms, want %g", i, ol.lateMs[i], wantLate[i])
		}
	}
	// Two over the 20 ms limit plus one failure.
	if ol.sloMisses != 3 {
		t.Errorf("sloMisses = %d, want 3", ol.sloMisses)
	}
}

func TestSumMedians(t *testing.T) {
	// Cell 0 was measured three times with one slow outlier, cell 1 twice
	// (a run may end part-way through a cycle): each contributes its own
	// median, so the outlier does not reach the sum.
	if got := sumMedians([][]float64{{10, 90, 12}, {4, 6}}); got != 17 {
		t.Errorf("sumMedians = %g, want 17", got)
	}
}
