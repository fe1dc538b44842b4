package core

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

// Graceful degradation under syscall failure. A production server cannot
// treat a transient ENOMEM from mremap or mprotect as fatal: the degradation
// ladder is (1) retry the syscall a bounded number of times with charged
// exponential backoff; (2) if allocation-side protection still cannot be
// established, fall back to handing out the canonical address unprotected
// (the object behaves exactly as under the native allocator, and
// Stats.DegradedAllocs records the lost coverage); (3) if deallocation-side
// protection fails persistently, the object's shadow pages are dropped from
// tracking without PROT_NONE (Stats.UnprotectedFrees) — availability is
// preserved and the detection guarantee is narrowed, never the reverse.
// This mirrors the recover-and-continue posture of GWP-ASan and CAMP:
// degrade protection, not the service.

// RetryConfig bounds the transient-failure retry loop.
type RetryConfig struct {
	// MaxRetries is the number of re-attempts after the first failure.
	MaxRetries int
	// BackoffCycles is charged to the meter before the first retry and
	// doubles on each subsequent one, modelling the wait a real runtime
	// would insert before re-trying the kernel.
	BackoffCycles uint64
}

// DefaultRetryConfig is the remapper's default ladder: 3 retries starting at
// a 256-cycle backoff (256, 512, 1024).
func DefaultRetryConfig() RetryConfig {
	return RetryConfig{MaxRetries: 3, BackoffCycles: 256}
}

// SetRetryConfig overrides the retry ladder (tests and studies).
func (r *Remapper) SetRetryConfig(rc RetryConfig) { r.retry = rc }

// retryTransient runs op, retrying up to MaxRetries times while it keeps
// failing with a transient injected syscall error. Each retry charges
// exponentially growing backoff cycles. Non-syscall errors, persistent
// (budget) syscall errors, and success all return immediately.
func (r *Remapper) retryTransient(op func() error) error {
	err := op()
	for attempt := 0; attempt < r.retry.MaxRetries; attempt++ {
		var se *kernel.SyscallError
		if err == nil || !errors.As(err, &se) || !se.Transient {
			return err
		}
		r.stats.TransientRetries++
		r.proc.Flight().Record(obs.FlightEvent{
			Cycles: r.proc.Meter().Cycles(), Kind: obs.FlightDegrade,
			What: "retry", Site: r.proc.Site(),
		})
		r.proc.Meter().ChargeRaw(r.retry.BackoffCycles << uint(attempt))
		err = op()
	}
	return err
}

// degradeAlloc records a canonical-address fallback allocation: the program
// receives canon itself, no shadow pages and no remap header exist, and Free
// must forward the pointer straight to the underlying allocator.
func (r *Remapper) degradeAlloc(owner *pool.Pool, canon vm.Addr) vm.Addr {
	r.degraded[canon] = true
	if owner != nil {
		r.degradedByPool[owner] = append(r.degradedByPool[owner], canon)
	}
	r.stats.DegradedAllocs++
	r.proc.Flight().Record(obs.FlightEvent{
		Cycles: r.proc.Meter().Cycles(), Kind: obs.FlightDegrade,
		What: "degraded-alloc", Site: r.proc.Site(), Addr: uint64(canon),
	})
	return canon
}

// dropUnprotected retires an object whose free-time mprotect failed
// persistently: its shadow pages stay mapped RW (aliased to canonical frames
// the allocator will reuse), so the object leaves the tracking maps and the
// detection guarantee no longer covers it. The run stays attached to its
// pool — pool destroy releases the pages as usual.
func (r *Remapper) dropUnprotected(obj *Object) {
	obj.State = StateRecycled
	obj.RecycledBy = RecycledByUnprotected
	r.unindex(obj)
	r.stats.UnprotectedFrees++
	r.proc.Flight().Record(obs.FlightEvent{
		Cycles: r.proc.Meter().Cycles(), Kind: obs.FlightDegrade,
		What: "unprotected-free", Site: r.proc.Site(),
		Obj: obj.AllocSeq, Addr: uint64(obj.ShadowAddr), Pages: obj.ShadowRun.Pages,
	})
}

// HealthError wraps a health-check violation together with the process's
// flight-recorder snapshot at audit time, so a corrupted-bookkeeping report
// ships with the event history that led to it. Error() returns the
// underlying violation's text unchanged.
type HealthError struct {
	Err    error
	Flight []obs.FlightEvent
}

// Error implements error.
func (e *HealthError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying violation to errors.Is/As.
func (e *HealthError) Unwrap() error { return e.Err }

// HealthCheck audits the remapper's internal invariants, returning the first
// violation found (as a *HealthError carrying the flight-recorder snapshot)
// or nil. The chaos harness runs it after every faulted connection:
// degradation must narrow coverage, never corrupt bookkeeping.
func (r *Remapper) HealthCheck() error {
	if err := r.healthCheck(); err != nil {
		return &HealthError{Err: err, Flight: r.proc.Flight().Snapshot()}
	}
	return nil
}

// healthCheck is the bare invariant audit.
func (r *Remapper) healthCheck() error {
	// (1) The page index only holds live and freed objects, and every
	// object's pages agree on their owner. The walk is in ascending VPN
	// order, so the lowest offending page is the one reported.
	seen := make(map[*Object]bool)
	var err error
	r.objects.each(func(vpn vm.VPN, obj *Object) bool {
		if obj.State != StateLive && obj.State != StateFreed {
			err = fmt.Errorf("core: health: %s object (alloc %s) still indexed at page %#x",
				obj.State, obj.AllocSite, uint64(vpn)<<vm.PageShift)
			return false
		}
		base := vm.PageOf(obj.ShadowRun.Addr)
		if vpn < base || uint64(vpn-base) >= obj.ShadowRun.Pages {
			err = fmt.Errorf("core: health: page %#x indexed to object whose run is %#x/%d",
				uint64(vpn)<<vm.PageShift, obj.ShadowRun.Addr, obj.ShadowRun.Pages)
			return false
		}
		seen[obj] = true
		return true
	})
	if err != nil {
		return err
	}
	// (2) Page counters match the indexed objects exactly.
	var live, freed uint64
	for obj := range seen {
		if obj.State == StateLive {
			live += obj.ShadowRun.Pages
		} else {
			freed += obj.ShadowRun.Pages
		}
	}
	if live != r.stats.ShadowPagesLive {
		return fmt.Errorf("core: health: live shadow pages %d, counter says %d", live, r.stats.ShadowPagesLive)
	}
	if freed != r.stats.ShadowPagesFreed {
		return fmt.Errorf("core: health: freed shadow pages %d, counter says %d", freed, r.stats.ShadowPagesFreed)
	}
	// (3) Recycled free-list runs must be disjoint from indexed objects:
	// handing one out would alias a tracked object's pages.
	for _, run := range r.recycled {
		for i := uint64(0); i < run.Pages; i++ {
			vpn := vm.PageOf(run.Addr) + vm.VPN(i)
			if obj := r.objects.get(vpn); obj != nil {
				return fmt.Errorf("core: health: recycled run page %#x still indexed to %s object",
					uint64(vpn)<<vm.PageShift, obj.State)
			}
		}
	}
	// (4) An address cannot be both elided (static proof) and degraded
	// (runtime fallback) — the two fallback free paths would double-free.
	for addr := range r.degraded {
		if r.elided[addr] {
			return fmt.Errorf("core: health: %#x is both elided and degraded", addr)
		}
	}
	// (4b) Likewise for unsampled addresses: each canonical-address record
	// must belong to exactly one fallback free path.
	for addr := range r.unsampled {
		if r.elided[addr] {
			return fmt.Errorf("core: health: %#x is both elided and unsampled", addr)
		}
		if r.degraded[addr] {
			return fmt.Errorf("core: health: %#x is both degraded and unsampled", addr)
		}
	}
	// (5) Queued batch entries are freed (awaiting protection) or recycled
	// (retired while queued; Flush skips them) — never live.
	for _, obj := range r.pending {
		if obj.State == StateLive {
			return fmt.Errorf("core: health: live object (alloc %s) in protect queue", obj.AllocSite)
		}
	}
	// (6) The missed-detection ledger is consistent: an undetected stale
	// use of a still-protected object is a protection failure, not a
	// reuse-policy cost, and must never be counted (the ledger's
	// "never goes negative" direction).
	if r.ledger.Inconsistent != 0 {
		return fmt.Errorf("core: health: %d stale uses of still-protected objects went undetected", r.ledger.Inconsistent)
	}
	// (7) Counters derived from the ledger and the cycle log agree.
	if r.stats.MissedDetections != r.ledger.Missed {
		return fmt.Errorf("core: health: missed-detection counter %d, ledger says %d", r.stats.MissedDetections, r.ledger.Missed)
	}
	var logCycles uint64
	for i := range r.gcLog {
		logCycles += r.gcLog[i].Cycles
	}
	if logCycles != r.stats.GCCycleCost {
		return fmt.Errorf("core: health: GC cycle log sums to %d cycles, counter says %d", logCycles, r.stats.GCCycleCost)
	}
	if kern := r.proc.GCChargedCycles(); kern != r.stats.GCCycleCost {
		return fmt.Errorf("core: health: kernel charged %d GC cycles, remapper counted %d", kern, r.stats.GCCycleCost)
	}
	return nil
}
