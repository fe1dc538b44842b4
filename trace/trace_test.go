package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/pageguard"
)

func TestParseAndFormatRoundTrip(t *testing.T) {
	src := `
# a comment
a 1 64
w 1 0
r 1 0

a 2 128
f 1
r 1 8
f 2
`
	events, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(events) != 7 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Kind != EvAlloc || events[0].ID != 1 || events[0].Size != 64 {
		t.Fatalf("event 0 = %+v", events[0])
	}

	var buf bytes.Buffer
	if err := Format(&buf, events); err != nil {
		t.Fatalf("Format: %v", err)
	}
	again, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(again) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(again), len(events))
	}
	for i := range events {
		a, b := events[i], again[i]
		if a.Kind != b.Kind || a.ID != b.ID || a.Size != b.Size || a.Off != b.Off {
			t.Fatalf("event %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestParseRejectsFaultSchedule: Parse used to silently drop the '!faults'
// directive, so a faulted trace replayed through that entry point diverged
// from the recorded run. It must now refuse and point callers at ParseFile.
func TestParseRejectsFaultSchedule(t *testing.T) {
	src := `
!faults seed=7;mprotect:after=0,times=2
a 1 64
f 1
`
	_, err := Parse(strings.NewReader(src))
	if err == nil {
		t.Fatal("Parse accepted a trace with a !faults schedule")
	}
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 2 || !strings.Contains(pe.Msg, "ParseFile") {
		t.Fatalf("Parse error = %v, want ParseError at the directive line pointing at ParseFile", err)
	}
	// The same trace through ParseFile keeps the schedule.
	f, err := ParseFile(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if f.FaultSpec == "" || f.FaultLine != 2 {
		t.Fatalf("ParseFile = %+v, want schedule at line 2", f)
	}
}

// TestParseFileFormatByteIdentity: ParseFile → Format → ParseFile → Format
// must reproduce the formatted trace byte-for-byte, directive and 'x'
// records included — the round-trip property the serving path's parity
// checks build on.
func TestParseFileFormatByteIdentity(t *testing.T) {
	src := `
# produced by a fault-injection run
!faults seed=7;mprotect:after=0,times=2
a 1 64
w 1 0
f 1
x mprotect EAGAIN
x mprotect EAGAIN
a 2 32
r 2 8
f 2
`
	f1, err := ParseFile(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	var b1 bytes.Buffer
	if err := f1.Format(&b1); err != nil {
		t.Fatalf("Format: %v", err)
	}
	f2, err := ParseFile(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	var b2 bytes.Buffer
	if err := f2.Format(&b2); err != nil {
		t.Fatalf("reformat: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n%q\nvs\n%q", b1.String(), b2.String())
	}
	if f2.FaultSpec != f1.FaultSpec {
		t.Fatalf("FaultSpec diverged: %q vs %q", f2.FaultSpec, f1.FaultSpec)
	}
}

// TestFormatLines pins the exact rendering of every event kind: the replay
// cache and the router hash it, so a byte that moves changes every key.
func TestFormatLines(t *testing.T) {
	events := []Event{
		{Kind: EvAlloc, ID: 1, Size: 147456},
		{Kind: EvWrite, ID: 1, Off: 0},
		{Kind: EvRead, ID: 18446744073709551615, Off: 8},
		{Kind: EvFault, Call: "mprotect", Errno: "ENOMEM"},
		{Kind: EvForget, ID: 1},
		{Kind: EvFree, ID: 1},
	}
	const want = "a 1 147456\nw 1 0\nr 18446744073709551615 8\nx mprotect ENOMEM\nz 1\nf 1\n"
	var b bytes.Buffer
	if err := Format(&b, events); err != nil {
		t.Fatalf("Format: %v", err)
	}
	if b.String() != want {
		t.Fatalf("Format = %q, want %q", b.String(), want)
	}
	if err := Format(&b, []Event{{Kind: '?'}}); err == nil {
		t.Fatal("Format accepted an unknown event kind")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"x 1 2",
		"a 1",
		"a one 2",
		"f",
		"r 1",
		"w 1 two",
	}
	for _, src := range bad {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestReplayCleanTrace(t *testing.T) {
	events, err := Parse(strings.NewReader(`
a 1 64
w 1 0
w 1 56
r 1 0
f 1
a 2 32
r 2 8
f 2
`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(pageguard.NewMachine(), events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(rep.Detections) != 0 {
		t.Fatalf("clean trace produced detections: %v", rep.Detections)
	}
	if rep.Allocs != 2 || rep.Frees != 2 || rep.Writes != 2 || rep.Reads != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Stats.Allocs != 2 {
		t.Fatalf("stats = %v", rep.Stats)
	}
}

func TestReplayDetectsUAFAndDoubleFree(t *testing.T) {
	events, err := Parse(strings.NewReader(`
a 1 64
f 1
r 1 0
f 1
a 1 64
w 1 0
`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(pageguard.NewMachine(), events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(rep.Detections) != 2 {
		t.Fatalf("detections = %v", rep.Detections)
	}
	// The stale read on line 4, the double free on line 5.
	if rep.Detections[0].Line != 4 || rep.Detections[1].Line != 5 {
		t.Fatalf("detection lines = %d, %d", rep.Detections[0].Line, rep.Detections[1].Line)
	}
	// The id was reused for a fresh allocation afterwards, which must
	// work.
	if rep.Allocs != 2 || rep.Writes != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestReplayUnknownID(t *testing.T) {
	events, err := Parse(strings.NewReader("r 9 0"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Replay(pageguard.NewMachine(), events)
	var re *ReplayError
	if err == nil || !strings.Contains(err.Error(), "unknown id") {
		t.Fatalf("expected ReplayError, got %v", err)
	}
	_ = re
}

// TestReplayRandomTracesDetectExactlyInjectedBugs generates random traces
// with a known set of injected stale accesses and checks the detector
// reports exactly those lines.
func TestReplayRandomTracesDetectExactlyInjectedBugs(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var events []Event
		line := 0
		emit := func(ev Event) {
			line++
			ev.Line = line
			events = append(events, ev)
		}

		type obj struct {
			id   uint64
			size uint64
			live bool
		}
		var objs []*obj
		wantLines := map[int]bool{}
		nextID := uint64(1)

		for i := 0; i < 200; i++ {
			switch r.Intn(5) {
			case 0, 1: // alloc
				o := &obj{id: nextID, size: uint64(8 + 8*r.Intn(16)), live: true}
				nextID++
				objs = append(objs, o)
				emit(Event{Kind: EvAlloc, ID: o.id, Size: o.size})
			case 2: // free a live object
				for _, o := range objs {
					if o.live {
						o.live = false
						emit(Event{Kind: EvFree, ID: o.id})
						break
					}
				}
			case 3: // legal access
				for _, o := range objs {
					if o.live {
						off := uint64(r.Intn(int(o.size/8))) * 8
						emit(Event{Kind: EvRead, ID: o.id, Off: off})
						break
					}
				}
			case 4: // injected stale access (sometimes)
				for _, o := range objs {
					if !o.live {
						emit(Event{Kind: EvWrite, ID: o.id, Off: 0})
						wantLines[line] = true
						break
					}
				}
			}
		}

		rep, err := Replay(pageguard.NewMachine(), events)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gotLines := map[int]bool{}
		for _, d := range rep.Detections {
			gotLines[d.Line] = true
		}
		for l := range wantLines {
			if !gotLines[l] {
				t.Errorf("seed %d: injected stale access at line %d not detected", seed, l)
			}
		}
		for l := range gotLines {
			if !wantLines[l] {
				t.Errorf("seed %d: false positive at line %d", seed, l)
			}
		}
	}
}

func TestParseFileFaultDirective(t *testing.T) {
	src := `
!faults seed=7;mprotect:after=0,times=2
a 1 64
f 1
x mprotect EAGAIN
x mprotect EAGAIN
`
	f, err := ParseFile(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if f.FaultSpec != "seed=7;mprotect:after=0,times=2" {
		t.Fatalf("FaultSpec = %q", f.FaultSpec)
	}
	if len(f.Events) != 4 || f.Events[2].Kind != EvFault || f.Events[2].Call != "mprotect" {
		t.Fatalf("events = %+v", f.Events)
	}

	var buf bytes.Buffer
	if err := f.Format(&buf); err != nil {
		t.Fatalf("Format: %v", err)
	}
	again, err := ParseFile(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if again.FaultSpec != f.FaultSpec || len(again.Events) != len(f.Events) {
		t.Fatalf("round trip: %+v", again)
	}

	bad := []string{
		"a 1 64\n!faults seed=1;mremap:prob=0.5", // directive after events
		"!faults seed=1;bogus:prob=0.5",          // unparseable schedule
		"!wibble",                                // unknown directive
		"x wibble ENOMEM",                        // unknown syscall
		"x mremap EWOULDBLOCK",                   // unknown errno
	}
	for _, src := range bad {
		if _, err := ParseFile(strings.NewReader(src)); err == nil {
			t.Errorf("ParseFile(%q): expected error", src)
		}
	}
}

// TestReplayFaultedRoundTrip is the satellite acceptance check: a faulted
// run's annotated trace, replayed with the same schedule, reproduces the
// run bit-for-bit — every recorded fault recurs at the same position.
func TestReplayFaultedRoundTrip(t *testing.T) {
	const spec = "seed=7;mprotect:after=0,times=2"
	events, err := Parse(strings.NewReader(`
a 1 64
w 1 0
f 1
a 2 32
f 2
`))
	if err != nil {
		t.Fatal(err)
	}

	m := pageguard.NewMachine(pageguard.WithFaultSchedule(spec))
	rep, err := Replay(m, events)
	if err != nil {
		t.Fatalf("faulted replay: %v", err)
	}
	if len(rep.InjectedFaults) != 2 {
		t.Fatalf("injected = %v, want 2 faults", rep.InjectedFaults)
	}
	// The faults were absorbed by the first free: a w f x x a f.
	kinds := ""
	for _, ev := range rep.Annotated {
		kinds += string(ev.Kind)
	}
	if kinds != "awfxxaf" {
		t.Fatalf("annotated = %q, want awfxxaf", kinds)
	}

	// Write the annotated trace and replay it with the same schedule: the
	// verification pass must accept it.
	var buf bytes.Buffer
	ann := &File{FaultSpec: spec, Events: rep.Annotated}
	if err := ann.Format(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := ParseFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2 := pageguard.NewMachine(pageguard.WithFaultSchedule(f2.FaultSpec))
	rep2, err := Replay(m2, f2.Events)
	if err != nil {
		t.Fatalf("verified replay: %v", err)
	}
	if rep2.Stats != rep.Stats {
		t.Fatalf("replay stats diverge:\n%v\nvs\n%v", rep2.Stats, rep.Stats)
	}

	// Without the schedule the recorded faults cannot recur: the
	// verification pass must reject the trace.
	if _, err := Replay(pageguard.NewMachine(), f2.Events); err == nil {
		t.Fatal("replay without fault schedule accepted a faulted trace")
	}
	// A different schedule diverges.
	m3 := pageguard.NewMachine(pageguard.WithFaultSchedule("seed=7;mremap:after=0,times=1"))
	if _, err := Replay(m3, f2.Events); err == nil {
		t.Fatal("replay with wrong schedule accepted the trace")
	}
}
