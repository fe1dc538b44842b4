package core

import (
	"encoding/binary"
	"sort"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sim/vm"
)

// pageOfRun returns the i-th shadow VPN of an object's run.
func pageOfRun(obj *Object, i uint64) vm.VPN {
	return vm.PageOf(obj.ShadowRun.Addr) + vm.VPN(i)
}

// gcWordCost is the per-word scan cost charged by the collector.
const gcWordCost = 2

// CollectGarbage runs the §3.4 conservative collector: it scans the live
// heap (every live object in every live pool, plus the policy's extra root
// ranges) for word values that look like pointers into freed objects' shadow
// pages. Freed shadow runs with no such incoming pointer are recycled; runs
// that are still referenced are kept protected, so the pointers that
// actually dangle keep trapping.
//
// The paper argues this is much cheaper than GC-for-memory-management: it
// runs infrequently, and "by knowing which pools need to be collected, the
// collector can use this information to traverse only a subset of the heap".
// We exploit the same structure: only pools whose dynamic points-to sets can
// reach a pool with freed shadow pages need scanning; with the default
// simulation configuration that is every live pool, which is still only the
// live data, never the freed data.
//
// Returns the number of shadow pages recycled.
func (r *Remapper) CollectGarbage() uint64 {
	c := r.collect(GCTriggerManual)
	return c.PagesRecycled
}

// collect runs one collector cycle and returns its accounting record. The
// scan cost (gcWordCost per visited word) is charged once, at cycle end,
// through the kernel's accounted ChargeGC path under a per-trigger site
// label — batching the identical per-word total into a single charge keeps
// simulated cycle totals unchanged while making the cost attributable
// (Profile gc_cycles) and auditable (KernelChargedCycles).
func (r *Remapper) collect(trigger GCTrigger) GCCycle {
	r.stats.GCRuns++
	rec := GCCycle{
		Seq:      r.stats.GCRuns,
		Trigger:  trigger,
		AllocSeq: r.allocSeq,
	}
	tr := r.proc.Tracer()
	gcSpan := tr.Begin("gc-cycle", "gc:"+trigger.String())
	defer func() {
		tr.End(gcSpan)
		rec.ReservedPages = r.proc.Space().ReservedPages()
		r.gcLog = append(r.gcLog, rec)
		r.proc.Flight().Record(obs.FlightEvent{
			Cycles: r.proc.Meter().Cycles(), Kind: obs.FlightGC,
			What: trigger.String(), Site: r.proc.Site(), Pages: rec.PagesRecycled,
		})
	}()

	// Gather the freed-object set, indexed by shadow VPN.
	type cand struct {
		obj    *Object
		marked bool
	}
	byVPN := make(map[vm.VPN]*cand)
	var cands []*cand
	add := func(obj *Object) {
		c := &cand{obj: obj}
		cands = append(cands, c)
		for i := uint64(0); i < obj.ShadowRun.Pages; i++ {
			byVPN[pageOfRun(obj, i)] = c
		}
	}
	for _, obj := range r.freedNoPool {
		add(obj)
	}
	for _, p := range r.freedPoolsSorted() {
		for _, obj := range r.freedInPool[p] {
			add(obj)
		}
	}
	if len(cands) == 0 {
		return rec
	}

	mark := func(word uint64) {
		if word >= vm.UserAddrLimit {
			return
		}
		if c, ok := byVPN[vm.PageOf(word)]; ok {
			c.marked = true
		}
	}

	// Scan live objects of live pools. Live objects are the only heap
	// words the program can still read, so they are the only heap roots.
	//
	// A conservative collector must over-approximate roots: every aligned
	// word that overlaps [start, end) is visited, with the read clamped to
	// the bytes inside the range. Clamping matters at both edges — the scan
	// must not read memory below an unaligned start (those bytes belong to
	// someone else), and it must not skip the final partial word of an
	// odd-sized range (a pointer held in the last <8 bytes of an object is
	// still a root; dropping it would recycle a still-referenced shadow run
	// and silently miss the detection).
	mmu := r.proc.MMU()
	var words uint64
	scanRange := func(start, end vm.Addr) {
		for a := start &^ 7; a < end; a += 8 {
			lo, hi := a, a+8
			if lo < start {
				lo = start
			}
			if hi > end {
				hi = end
			}
			var buf [8]byte
			if err := mmu.PeekBytes(lo, buf[:hi-lo]); err != nil {
				continue
			}
			words++
			mark(binary.LittleEndian.Uint64(buf[:]))
		}
	}
	livePools := make([]*pool.Pool, 0, len(r.byPool))
	for p := range r.byPool {
		livePools = append(livePools, p)
	}
	sort.Slice(livePools, func(i, j int) bool { return livePools[i].ID() < livePools[j].ID() })
	for _, p := range livePools {
		objs := r.byPool[p]
		if p.Destroyed() {
			continue
		}
		for _, obj := range objs {
			if obj.State == StateLive {
				scanRange(obj.ShadowAddr, obj.ShadowAddr+obj.UserSize)
			}
		}
	}
	for _, obj := range r.liveNoPoolObjects() {
		scanRange(obj.ShadowAddr, obj.ShadowAddr+obj.UserSize)
	}
	// The stack and globals segments are always roots: a dangling pointer
	// held in a local variable or a global must keep its shadow pages
	// protected.
	scanRange(r.proc.StackBase(), r.proc.StackLimit())
	gBase, gNext := r.proc.GlobalsRange()
	scanRange(gBase, gNext)
	if r.policy.Roots != nil {
		for _, root := range r.policy.Roots() {
			scanRange(root[0], root[1])
		}
	}

	// One batched charge for the whole scan, under a per-trigger site
	// label, through the kernel's single charge point.
	cycles := words * gcWordCost
	prev := r.proc.SetSite("gc:" + trigger.String())
	r.proc.ChargeGC(cycles)
	r.proc.SetSite(prev)
	r.stats.GCScannedWords += words
	r.stats.GCCycleCost += cycles
	rec.ScannedWords = words
	rec.Cycles = cycles

	// Recycle unmarked freed runs.
	var pages, objects uint64
	keepNoPool := r.freedNoPool[:0]
	for _, obj := range r.freedNoPool {
		// Quarantined sampled objects are exempt even when unreferenced:
		// the sampling tier's quarantine delays their release by policy.
		if byVPN[vm.PageOf(obj.ShadowRun.Addr)].marked || obj.Quarantined {
			keepNoPool = append(keepNoPool, obj)
			continue
		}
		pages += r.recycleObject(obj)
		objects++
	}
	r.freedNoPool = keepNoPool
	for _, p := range r.freedPoolsSorted() {
		objs := r.freedInPool[p]
		keep := objs[:0]
		for _, obj := range objs {
			if byVPN[vm.PageOf(obj.ShadowRun.Addr)].marked || obj.Quarantined {
				keep = append(keep, obj)
				continue
			}
			pages += r.recycleObject(obj)
			objects++
		}
		r.freedInPool[p] = keep
	}
	rec.PagesRecycled = pages
	rec.ObjectsRecycled = objects
	return rec
}

// recycleObject moves one freed object's shadow run to the recycled list.
func (r *Remapper) recycleObject(obj *Object) uint64 {
	obj.State = StateRecycled
	obj.RecycledBy = RecycledByGC
	r.unindex(obj)
	if obj.Pool != nil {
		obj.Pool.DetachRun(obj.ShadowRun)
	}
	r.recycled = append(r.recycled, obj.ShadowRun)
	r.stats.ShadowPagesFreed -= obj.ShadowRun.Pages
	return obj.ShadowRun.Pages
}

// liveNoPoolObjects returns live direct-mode objects (not owned by a pool),
// sorted by ShadowAddr: the page index walks in ascending VPN order and an
// object's run is a contiguous stretch of it, so skipping repeats of the
// previous object yields each object once, in shadow-address order. That
// keeps the root-scan order reproducible, matching the
// freedPoolsSorted/livePools treatment above.
func (r *Remapper) liveNoPoolObjects() []*Object {
	var out []*Object
	var prev *Object
	r.objects.each(func(_ vm.VPN, obj *Object) bool {
		if obj != prev && obj.Pool == nil && obj.State == StateLive {
			out = append(out, obj)
		}
		prev = obj
		return true
	})
	return out
}

// RecycledRuns returns the remapper-local free list (test and stats hook).
func (r *Remapper) RecycledRuns() []pool.PageRun {
	out := make([]pool.PageRun, len(r.recycled))
	copy(out, r.recycled)
	return out
}
