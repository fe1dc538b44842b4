package trace

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/pageguard"
)

// missTrace is a fixed trace shaped like one request of the serving
// benchmark's miss mix: 160 objects of 48-144 KiB, each allocated, written,
// read and freed at once, with a dangling read after every 80th. It maps
// about 4,000 shadow pages, so per-page host bookkeeping dominates its
// replay's allocations.
func missTrace(tb testing.TB) []Event {
	tb.Helper()
	var b strings.Builder
	for i := 1; i <= 160; i++ {
		size := 49152 + (i%7)*16384
		fmt.Fprintf(&b, "a %d %d\nw %d %d\nr %d %d\nf %d\n", i, size, i, (i*88)%size, i, (i*40)%size, i)
		if i%80 == 0 {
			fmt.Fprintf(&b, "r %d 0\n", i)
		}
	}
	events, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		tb.Fatal(err)
	}
	return events
}

// replayMiss builds a default machine and replays events on it, as a
// serving request does.
func replayMiss(tb testing.TB, events []Event) (*Report, *pageguard.Machine) {
	m := pageguard.NewMachine()
	rep, err := Replay(m, events)
	if err != nil {
		tb.Fatal(err)
	}
	if len(rep.Detections) != 2 {
		tb.Fatalf("detections = %d, want 2", len(rep.Detections))
	}
	return rep, m
}

var benchReport *Report

func BenchmarkReplayMiss(b *testing.B) {
	events := missTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchReport, _ = replayMiss(b, events)
	}
}

// Allocation budget of one missTrace replay, machine set-up included, 25%
// above the higher of two figures measured when the shadow-page index, the
// frame refcounts and the replayer's per-id state became dense: Go 1.24 on
// linux/amd64 with its default Swiss-table maps (2940 allocs, 624,908 bytes)
// and with GOEXPERIMENT=noswissmap (2929 allocs, 626,156 bytes), the
// bucketed map implementation that Go 1.22, the go.mod version, ships. The
// budget has not been measured on a Go 1.22 toolchain itself. The byte
// budget leaves out the simulated frames' own 4 KiB backing arrays, three
// quarters of the total and fixed by the simulation, so that it measures the
// host's bookkeeping: a per-page map on the replay path adds about half
// again to that and trips it.
const (
	missReplayAllocsBudget = 3675
	missReplayBytesBudget  = 782700
)

func TestReplayMissAllocBudget(t *testing.T) {
	events := missTrace(t)
	_, m := replayMiss(t, events) // also warms lazily built package state
	frameBytes := m.PhysFramesPeak() * pageguard.PageSize
	allocs := testing.AllocsPerRun(5, func() { replayMiss(t, events) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		replayMiss(t, events)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc-before.TotalAlloc)/runs - frameBytes
	t.Logf("one replay: %.0f allocs, %d bytes beyond %d bytes of frames", allocs, bytes, frameBytes)
	if allocs > missReplayAllocsBudget {
		t.Errorf("one replay makes %.0f allocations, budget %d", allocs, missReplayAllocsBudget)
	}
	if bytes > missReplayBytesBudget {
		t.Errorf("one replay allocates %d bytes beyond its frames, budget %d", bytes, missReplayBytesBudget)
	}
}
