package main

import (
	"bytes"
	"fmt"
	"runtime"

	"repro/pageguard"
	"repro/trace"
)

// probeRequests caps how many of the sequential pass's traces the traced
// run replays in-process.
const probeRequests = 200

// probeOps caps the direct pageguard calls per event kind.
const probeOps = 2000

// heapCounters reads the Go heap's cumulative allocation counters. It stops
// the world, so it is only called between timed calls.
func heapCounters() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// probeLayers times the trace and pageguard layers in-process on the traces
// the sequential pass sent: trace.ParseFile, machine and process set-up,
// trace.Replay (which includes its own set-up) and trace.WriteNDJSON, each
// in its own span with its heap allocation; then pageguard.Process calls
// one at a time with the traces' object sizes.
//
// Set-up and replay run on a fresh trace.NewMachine. pgserved with default
// flags forks each request's machine from a pre-warmed snapshot instead, so
// pageguard.setup_us is the cost a fresh machine pays, which the server's
// fork avoids; the benchmark does not call the snapshot API itself, so that
// it keeps building if a later change removes the snapshot. serve.self_us
// is the sequential pass's round trip minus parse, replay minus set-up, and
// render on a miss (minus parse on a hit): what remains is HTTP, the
// server's snapshot fork, the content hash and the cache insert or lookup.
// It also takes in any difference between replaying on a fork and on a
// fresh machine.
func (r *run) probeLayers(in *serveInputs, seq seqResult) error {
	reqs := seq.reqs
	if len(reqs) > probeRequests {
		reqs = reqs[:probeRequests]
	}
	var parseKB, setupKB, replayKB, replayObjs, renderKB []float64
	var replaySelf, self []float64
	var sizes []uint64
	for i, q := range reqs {
		root := r.rec.begin("probe.trace", 0, q.rid)
		b0, _ := heapCounters()
		sp := r.rec.begin("trace.parse", root, q.rid)
		f, err := trace.ParseFile(bytes.NewReader(q.body))
		parse := r.rec.end(sp)
		if err != nil {
			return fmt.Errorf("probe parse: %w", err)
		}
		b1, _ := heapCounters()

		sp = r.rec.begin("pageguard.setup", root, q.rid)
		proc, err := trace.NewMachine(f).NewProcess()
		setup := r.rec.end(sp)
		if err != nil {
			return fmt.Errorf("probe set-up: %w", err)
		}
		bs, _ := heapCounters()
		if err := proc.Exit(); err != nil {
			return fmt.Errorf("probe set-up: exit: %w", err)
		}
		b2, o2 := heapCounters()

		sp = r.rec.begin("trace.replay", root, q.rid)
		rep, err := trace.Replay(trace.NewMachine(f), f.Events)
		replay := r.rec.end(sp)
		if err != nil {
			return fmt.Errorf("probe replay: %w", err)
		}
		b3, o3 := heapCounters()

		var buf bytes.Buffer
		sp = r.rec.begin("trace.render", root, q.rid)
		err = trace.WriteNDJSON(&buf, rep)
		render := r.rec.end(sp)
		r.rec.end(root)
		if err != nil {
			return fmt.Errorf("probe render: %w", err)
		}
		b4, _ := heapCounters()
		if !bytes.Equal(buf.Bytes(), q.want) {
			r.fail("probe of request %d: in-process body differs from set-up's", q.rid)
		}

		parseKB = append(parseKB, float64(b1-b0)/1024)
		setupKB = append(setupKB, float64(bs-b1)/1024)
		replayKB = append(replayKB, float64(b3-b2)/1024)
		replayObjs = append(replayObjs, float64(o3-o2))
		renderKB = append(renderKB, float64(b4-b3)/1024)
		replaySelf = append(replaySelf, float64((replay - setup).Microseconds()))
		onPath := parse + replay - setup + render
		if in.mix.hot {
			onPath = parse // a cache hit parses and looks up; it replays nothing
		}
		self = append(self, float64((seq.rtt[i] - onPath).Microseconds()))
		for _, e := range f.Events {
			if e.Kind == trace.EvAlloc && len(sizes) < probeOps {
				sizes = append(sizes, e.Size)
			}
		}
	}
	lt := groupSpans(r.rec.closed())
	r.set("trace.parse_us", median(lt.dur["trace.parse"])/1e3)
	r.set("pageguard.setup_us", median(lt.dur["pageguard.setup"])/1e3)
	r.set("trace.replay_us", median(lt.dur["trace.replay"])/1e3)
	r.set("trace.render_us", median(lt.dur["trace.render"])/1e3)
	r.set("trace.replay_self_us", median(replaySelf))
	r.set("serve.self_us", median(self))
	r.set("trace.parse_alloc_kb", median(parseKB))
	r.set("pageguard.setup_alloc_kb", median(setupKB))
	r.set("trace.replay_alloc_kb", median(replayKB))
	r.set("trace.replay_allocs", median(replayObjs))
	r.set("trace.render_alloc_kb", median(renderKB))
	return r.probeProcess(sizes)
}

// probeProcess calls one pageguard.Process directly, one object at a time:
// Malloc, an 8-byte Write and Read at offset 0, Free; each call in its own
// span.
func (r *run) probeProcess(sizes []uint64) error {
	proc, err := pageguard.NewMachine().NewProcess()
	if err != nil {
		return fmt.Errorf("probe pageguard: %w", err)
	}
	buf := make([]byte, 8)
	for i, size := range sizes {
		sp := r.rec.begin("pageguard.malloc", 0, i)
		ptr, err := proc.Malloc(size, "")
		r.rec.end(sp)
		if err != nil {
			return fmt.Errorf("probe malloc: %w", err)
		}
		sp = r.rec.begin("pageguard.write", 0, i)
		err = proc.Write(ptr, 0, buf)
		r.rec.end(sp)
		if err != nil {
			return fmt.Errorf("probe write: %w", err)
		}
		sp = r.rec.begin("pageguard.read", 0, i)
		err = proc.Read(ptr, 0, buf)
		r.rec.end(sp)
		if err != nil {
			return fmt.Errorf("probe read: %w", err)
		}
		sp = r.rec.begin("pageguard.free", 0, i)
		err = proc.Free(ptr, "")
		r.rec.end(sp)
		if err != nil {
			return fmt.Errorf("probe free: %w", err)
		}
	}
	lt := groupSpans(r.rec.closed())
	for _, k := range []string{"malloc", "free", "read", "write"} {
		r.set("pageguard."+k+"_ns", median(lt.dur["pageguard."+k]))
	}
	return proc.Exit()
}
