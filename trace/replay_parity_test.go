package trace

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/pageguard"
)

// parityTrace builds a trace with live allocations, dangling reads and
// writes (so TrapReports with flight-recorder context are emitted), a double
// free, and interleaved lifetimes.
func parityTrace(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "a %d %d\nw %d 0\n", i, 16+(i%5)*96, i)
		if i%3 == 0 {
			fmt.Fprintf(&b, "f %d\nr %d 0\nw %d 8\n", i, i, i) // dangling read+write
		}
		if i%7 == 0 {
			fmt.Fprintf(&b, "a %d 4000\nf %d\nf %d\n", n+i, n+i, n+i) // double free
		}
	}
	return b.String()
}

// replayBytes renders a full replay (NDJSON body + spans stream when traced)
// through the given machine.
func replayBytes(t *testing.T, m *pageguard.Machine, f *File, spans bool) []byte {
	t.Helper()
	rep, err := Replay(m, f.Events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, rep); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	if spans {
		if err := WriteSpansNDJSON(&buf, rep); err != nil {
			t.Fatalf("WriteSpansNDJSON: %v", err)
		}
	}
	return buf.Bytes()
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestConcurrentReplayParity: replays of different traces on machines
// running at once must each match their sequential bytes. Every machine
// reads its unwritten frames from one shared zero array, so under -race this
// also catches a write that reaches it.
func TestConcurrentReplayParity(t *testing.T) {
	const workers = 8
	srcs := make([]string, workers)
	want := make([][]byte, workers)
	for i := range srcs {
		srcs[i] = parityTrace(60 + 15*i)
		ff, err := ParseFile(strings.NewReader(srcs[i]))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = replayBytes(t, NewMachine(ff), ff, false)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ff, err := ParseFile(strings.NewReader(srcs[i]))
			if err != nil {
				t.Error(err)
				return
			}
			// replayBytes stops the test with t.Fatal, which only the
			// test's own goroutine may call.
			rep, err := Replay(NewMachine(ff), ff.Events)
			if err != nil {
				t.Errorf("worker %d: Replay: %v", i, err)
				return
			}
			var got bytes.Buffer
			if err := WriteNDJSON(&got, rep); err != nil {
				t.Errorf("worker %d: WriteNDJSON: %v", i, err)
				return
			}
			if !bytes.Equal(got.Bytes(), want[i]) {
				t.Errorf("worker %d: concurrent replay diverged from sequential, first diff at byte %d",
					i, firstDiff(want[i], got.Bytes()))
			}
		}(i)
	}
	wg.Wait()
}
