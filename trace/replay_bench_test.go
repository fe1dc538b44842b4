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
// above the higher of two figures measured when frames got their backing
// arrays on first write: Go 1.24 on linux/amd64 with its default Swiss-table
// maps (2486 allocs, 722,785 bytes) and with GOEXPERIMENT=noswissmap
// (2475 allocs, 724,024 bytes), the bucketed map implementation
// that Go 1.22, the go.mod version, ships. The budget has not been measured
// on a Go 1.22 toolchain itself. The byte budget covers everything a replay
// allocates, the frames' 4 KiB backing arrays included: which frames get one
// is up to the host code (only written frames do), so eager frame zeroing
// trips it as surely as a per-page map on the replay path.
const (
	missReplayAllocsBudget = 3108
	missReplayBytesBudget  = 905030
)

func TestReplayMissAllocBudget(t *testing.T) {
	events := missTrace(t)
	replayMiss(t, events) // warms lazily built package state
	allocs := testing.AllocsPerRun(5, func() { replayMiss(t, events) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		replayMiss(t, events)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one replay: %.0f allocs, %d bytes", allocs, bytes)
	if allocs > missReplayAllocsBudget {
		t.Errorf("one replay makes %.0f allocations, budget %d", allocs, missReplayAllocsBudget)
	}
	if bytes > missReplayBytesBudget {
		t.Errorf("one replay allocates %d bytes, budget %d", bytes, missReplayBytesBudget)
	}
}
