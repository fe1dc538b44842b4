package trace

import (
	"errors"
	"fmt"

	"repro/pageguard"
)

// Report summarizes a replay.
type Report struct {
	// Events is the number of events executed (including the faulting
	// one, if any).
	Events int
	// Allocs, Frees, Reads, Writes count successful operations.
	Allocs, Frees, Reads, Writes int
	// Forgets counts executed 'z' events (dropped simulated roots).
	Forgets int
	// StaleOps counts ground-truth stale uses the replayer settled with
	// the ledger: every touch of an id the trace had already freed. The
	// ledger's Detected+Missed+Inconsistent must sum to exactly this.
	StaleOps int
	// Detections collects every dangling/overflow report, in order.
	// Replay continues past detections (a monitoring deployment logs and
	// keeps serving), mirroring how the run-time handler could resume.
	Detections []Detection
	// InjectedFaults is the injector's log for the replay (empty without a
	// fault schedule on the machine).
	InjectedFaults []pageguard.FaultEvent
	// Annotated is the event stream with 'x' fault records interleaved
	// after the operations that absorbed them — writing it (with the
	// schedule in the header) produces a self-verifying trace of this run.
	Annotated []Event
	// Stats is the process's final detector statistics.
	Stats pageguard.Stats
	// Profile is the replay's per-site cycle attribution (sites are
	// "trace:N" labels, one per trace line).
	Profile *pageguard.SiteProfile
	// Metrics is the process's final metrics snapshot (every pg_* series
	// the kernel and detector expose). Snapshots from concurrent replays
	// merge with Add — that is how a serving deployment aggregates
	// per-request processes into fleet metrics.
	Metrics pageguard.MetricsSnapshot
	// GCLog is the collector's per-cycle accounting log (scheduled and
	// manual cycles, in execution order); summing its Cycles fields must
	// equal Stats.GCCycleCost.
	GCLog []pageguard.GCCycle
	// Health is the first bookkeeping-invariant violation observed — by
	// the scheduler's post-cycle audit or the end-of-replay health check —
	// or nil. A replay that finishes with a non-nil Health produced
	// numbers that cannot be trusted.
	Health error
	// Ledger is the detector's ground-truth missed-detection meter after
	// the replay.
	Ledger pageguard.MissLedger
	// Spans is the replay's cycle-exact span tree when the machine was
	// built with pageguard.WithSpanTracing (nil otherwise): a "replay"
	// root, one "op:*" span per trace event, and under them the leaf
	// spans the kernel emitted at its charge point. The sum of leaf-span
	// durations equals ChargedCycles exactly.
	Spans []pageguard.Span
	// ChargedCycles is the kernel's total charged cycles for the replay —
	// the reconciliation reference for Spans (always filled, traced or
	// not).
	ChargedCycles uint64
}

// Detection is one detected memory error during replay.
type Detection struct {
	// Line is the trace line of the faulting event.
	Line int
	// Err is the underlying *DanglingError or *OverflowError.
	Err error
	// Report is the forensic trap report for dangling detections, with
	// AllocLine/FreeLine filled from the trace's event provenance (nil for
	// overflow detections).
	Report *pageguard.TrapReport
}

// ReplayError reports a trace-semantics error (not a memory error): an
// event referencing an id the trace never allocated.
type ReplayError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ReplayError) Error() string { return fmt.Sprintf("trace line %d: %s", e.Line, e.Msg) }

// Replay executes events on a fresh process of m and reports what the
// detector saw.
//
// When the trace carries 'x' fault records (a trace written by a
// fault-injection run), the machine must be built with the trace's fault
// schedule (pageguard.WithFaultSchedule): replay then verifies that every
// recorded fault recurs at the same position with the same syscall and
// errno, and that no unrecorded fault appears — the bit-for-bit
// reproducibility check.
func Replay(m *pageguard.Machine, events []Event) (*Report, error) {
	proc, err := m.NewProcess()
	if err != nil {
		return nil, err
	}
	// ids holds each allocated trace id's state, stored by value in one
	// map presized to the trace's allocations.
	allocs := 0
	for _, ev := range events {
		if ev.Kind == EvAlloc {
			allocs++
		}
	}
	ids := make(map[uint64]idState, allocs)
	rep := &Report{Annotated: make([]Event, 0, len(events))}

	// The replayer's pointer copies live in a Go map, which the simulated
	// conservative collector cannot see. Each id therefore gets an 8-byte
	// root slot in the simulated globals segment (a GC root range)
	// holding the object's pointer: while the root is live, a correct
	// collector must not recycle the object's shadow pages. The 'z'
	// (forget) event zeroes and releases the slot, modelling a program
	// that lost its last copy of the pointer.
	var freeSlots []pageguard.Ptr
	setRoot := func(id *idState, line int) error {
		if !id.rooted {
			if n := len(freeSlots); n > 0 {
				id.slot, freeSlots = freeSlots[n-1], freeSlots[:n-1]
			} else {
				var err error
				if id.slot, err = proc.AllocGlobal(8); err != nil {
					return &ReplayError{line, "root table: " + err.Error()}
				}
			}
			id.rooted = true
		}
		return proc.WriteWordAt(id.slot, 0, 8, uint64(id.ptr), "root")
	}

	verify := false
	for _, ev := range events {
		if ev.Kind == EvFault {
			verify = true
			break
		}
	}
	verified := 0  // 'x' records checked against the live fault log
	annotated := 0 // live faults already copied into rep.Annotated
	drainFaults := func() {
		for _, f := range proc.InjectedFaults()[annotated:] {
			rep.Annotated = append(rep.Annotated, Event{
				Kind: EvFault, Call: f.Call.String(), Errno: f.Errno.String(),
			})
			annotated++
		}
	}

	note := func(ev Event, id idState, err error) error {
		if err == nil {
			return nil
		}
		var de *pageguard.DanglingError
		if errors.As(err, &de) {
			if de.Report != nil {
				de.Report.AllocLine = id.allocLine
				de.Report.FreeLine = id.freeLine
			}
			rep.Detections = append(rep.Detections, Detection{Line: ev.Line, Err: err, Report: de.Report})
			return nil
		}
		var oe *pageguard.OverflowError
		if errors.As(err, &oe) {
			rep.Detections = append(rep.Detections, Detection{Line: ev.Line, Err: err})
			return nil
		}
		return fmt.Errorf("trace line %d: %w", ev.Line, err)
	}

	// classifyStale settles one ground-truth stale use with the ledger and
	// never fails the replay: under a reuse policy the detector may
	// legitimately return a raw fault (shadow pages recycled, attribution
	// gone) or nothing at all (pages re-aliased to a new object) — those
	// are exactly the missed detections being measured.
	classifyStale := func(ev Event, id idState, err error) {
		rep.StaleOps++
		obj := id.handle
		var de *pageguard.DanglingError
		detected := errors.As(err, &de) && obj != nil && de.Object == obj
		proc.NoteStaleUse(obj, detected)
		if err == nil {
			return
		}
		if errors.As(err, &de) {
			if de.Report != nil {
				de.Report.AllocLine = id.allocLine
				de.Report.FreeLine = id.freeLine
			}
			rep.Detections = append(rep.Detections, Detection{Line: ev.Line, Err: err, Report: de.Report})
		}
	}

	// The replay root span: every op span (and, through them, every leaf
	// the kernel emits) nests under it. With tracing disabled BeginSpan
	// returns 0 and EndSpan ignores it.
	replaySpan := proc.BeginSpan("replay", "")

	for _, ev := range events {
		if ev.Kind == EvFault {
			faults := proc.InjectedFaults()
			if verified >= len(faults) {
				return rep, &ReplayError{ev.Line, fmt.Sprintf(
					"trace records injected fault %q that did not occur on replay (is the machine missing the trace's fault schedule?)",
					ev.Call+" "+ev.Errno)}
			}
			f := faults[verified]
			if f.Call.String() != ev.Call || f.Errno.String() != ev.Errno {
				return rep, &ReplayError{ev.Line, fmt.Sprintf(
					"injected fault diverges: trace records %s %s, replay injected %s %s",
					ev.Call, ev.Errno, f.Call, f.Errno)}
			}
			verified++
			continue
		}
		if verify && verified != len(proc.InjectedFaults()) {
			return rep, &ReplayError{ev.Line, fmt.Sprintf(
				"replay injected %d faults before this event but the trace records %d",
				len(proc.InjectedFaults()), verified)}
		}
		rep.Events++
		rep.Annotated = append(rep.Annotated, ev)
		site := fmt.Sprintf("trace:%d", ev.Line)
		opSpan := proc.BeginSpan(opSpanName(ev.Kind), site)
		switch ev.Kind {
		case EvAlloc:
			ptr, err := proc.Malloc(ev.Size, site)
			if err != nil {
				return rep, fmt.Errorf("trace line %d: %w", ev.Line, err)
			}
			prev := ids[ev.ID]
			id := idState{ptr: ptr, handle: proc.ObjectAt(ptr), allocLine: ev.Line, slot: prev.slot, rooted: prev.rooted}
			err = setRoot(&id, ev.Line)
			ids[ev.ID] = id
			if err != nil {
				return rep, err
			}
			rep.Allocs++
		case EvFree:
			id, ok := ids[ev.ID]
			if !ok {
				return rep, &ReplayError{ev.Line, fmt.Sprintf("free of unknown id %d", ev.ID)}
			}
			err := proc.Free(id.ptr, site)
			if id.stale {
				// A second free of an id the trace already freed: ground
				// truth says double-free, whatever the detector returned.
				classifyStale(ev, id, err)
			} else {
				if err == nil {
					id.freeLine = ev.Line
					id.stale = true
					ids[ev.ID] = id
				}
				if err := note(ev, id, err); err != nil {
					return rep, err
				}
			}
			rep.Frees++
		case EvWrite:
			id, ok := ids[ev.ID]
			if !ok {
				return rep, &ReplayError{ev.Line, fmt.Sprintf("write to unknown id %d", ev.ID)}
			}
			err := proc.WriteWordAt(id.ptr, ev.Off, 8, uint64(ev.Line), site)
			if id.stale {
				classifyStale(ev, id, err)
			} else if err := note(ev, id, err); err != nil {
				return rep, err
			}
			rep.Writes++
		case EvRead:
			id, ok := ids[ev.ID]
			if !ok {
				return rep, &ReplayError{ev.Line, fmt.Sprintf("read of unknown id %d", ev.ID)}
			}
			_, err := proc.ReadWordAt(id.ptr, ev.Off, 8, site)
			if id.stale {
				classifyStale(ev, id, err)
			} else if err != nil {
				if err := note(ev, id, err); err != nil {
					return rep, err
				}
			}
			rep.Reads++
		case EvForget:
			id, ok := ids[ev.ID]
			if !ok || !id.rooted {
				return rep, &ReplayError{ev.Line, fmt.Sprintf("forget of unknown id %d", ev.ID)}
			}
			if err := proc.WriteWordAt(id.slot, 0, 8, 0, "root"); err != nil {
				return rep, fmt.Errorf("trace line %d: %w", ev.Line, err)
			}
			id.rooted = false
			ids[ev.ID] = id
			freeSlots = append(freeSlots, id.slot)
			rep.Forgets++
		}
		proc.EndSpan(opSpan)
		drainFaults()
	}
	proc.EndSpan(replaySpan)
	if faults := proc.InjectedFaults(); verify && verified != len(faults) {
		return rep, &ReplayError{0, fmt.Sprintf(
			"replay injected %d faults but the trace records %d", len(faults), verified)}
	}
	rep.InjectedFaults = proc.InjectedFaults()
	rep.Stats = proc.Stats()
	rep.Profile = proc.Profile()
	rep.GCLog = proc.GCCycleLog()
	rep.Ledger = proc.Ledger()
	rep.Health = proc.SchedulerHealthErr()
	if rep.Health == nil {
		rep.Health = proc.HealthCheck()
	}
	reg := pageguard.NewRegistry()
	proc.RegisterMetrics(reg)
	rep.Metrics = reg.Snapshot()
	rep.Spans = proc.Spans()
	rep.ChargedCycles = proc.ChargedCycles()
	return rep, nil
}

// idState is the replayer's record of one trace id.
type idState struct {
	// ptr is the id's current (or last) pointer; a freed id keeps it so
	// stale accesses replay faithfully.
	ptr pageguard.Ptr
	// handle is the detector's own object record, captured at allocation,
	// so a detection can be checked for correct attribution (the
	// DanglingError must name that very object).
	handle *pageguard.ObjectRecord
	// allocLine and freeLine are the id's provenance (the trace lines that
	// allocated and freed it), so detections carry source positions.
	allocLine, freeLine int
	// stale is the missed-detection ledger's ground truth: the trace has
	// freed the id, so every later touch of it is a stale use by
	// construction.
	stale bool
	// slot is the id's GC root slot in the simulated globals segment,
	// holding ptr while rooted; a 'z' event clears rooted and releases
	// the slot for reuse.
	slot   pageguard.Ptr
	rooted bool
}

// opSpanName names the grouping span for one trace event.
func opSpanName(k EventKind) string {
	switch k {
	case EvAlloc:
		return "op:alloc"
	case EvFree:
		return "op:free"
	case EvWrite:
		return "op:write"
	case EvRead:
		return "op:read"
	case EvForget:
		return "op:forget"
	}
	return "op:?"
}
