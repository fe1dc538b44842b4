// Package kernel provides the simulated operating-system layer: processes,
// and the four memory-management system calls the paper's scheme is built
// from — mmap, munmap, mprotect, and the undocumented-but-real
// mremap(old_size = 0) page-aliasing behaviour (§3.2, footnote 3).
//
// Every syscall charges the process meter (the paper's first overhead
// source: "we require an extra system call per allocation and deallocation")
// and performs TLB shootdowns on the pages it touches.
package kernel

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim/cost"
	"repro/internal/sim/mmu"
	"repro/internal/sim/phys"
	"repro/internal/sim/vm"
)

// System owns the machine-wide state shared by processes: physical memory.
// The fork-per-connection servers of §4.3 create one Process per connection
// against a single System.
type System struct {
	mem *phys.Memory
	// procSeq numbers processes in creation order so each gets a distinct,
	// deterministic fault-injection stream under one schedule seed.
	procSeq uint64
}

// Config configures a simulated machine and process.
type Config struct {
	// MaxFrames bounds physical memory (0 = unlimited). The Electric
	// Fence contrast experiment sets this to reproduce enscript's OOM.
	MaxFrames uint64
	// MMU is the TLB hierarchy and data-cache geometry.
	MMU mmu.Config
	// Model is the cycle price list.
	Model cost.Model
	// StackPages is the size of the process stack mapping (default 256
	// pages = 1 MB).
	StackPages uint64
	// GlobalPages is the size of the globals/data segment mapping
	// (default 64 pages).
	GlobalPages uint64
	// VABudgetPages, when nonzero, caps the total fresh virtual pages the
	// process may ever reserve — a compressed model of the paper's §3.4
	// 47-bit exhaustion cliff. The budget must cover the fixed stack and
	// globals mappings; once spent, only recycled (already-reserved)
	// address space remains usable.
	VABudgetPages uint64
	// Faults optionally injects deterministic syscall failures into the
	// fallible memory syscalls (nil = every syscall succeeds).
	Faults *Schedule
	// LegacyPageTable selects the map-backed page table instead of the
	// radix one. Test-only: the golden parity test runs both and asserts
	// identical simulated results.
	LegacyPageTable bool
}

// DefaultConfig returns the reference machine.
func DefaultConfig() Config {
	return Config{
		MMU:         mmu.DefaultConfig(),
		Model:       cost.Default(),
		StackPages:  256,
		GlobalPages: 64,
	}
}

// NewSystem boots a machine.
func NewSystem(cfg Config) *System {
	return &System{mem: phys.NewMemory(cfg.MaxFrames)}
}

// PhysMemory exposes the machine's physical memory for stats.
func (s *System) PhysMemory() *phys.Memory { return s.mem }

// Process is one simulated process: an address space, an MMU, a meter, and
// the syscall interface. Not safe for concurrent use.
type Process struct {
	sys   *System
	space *vm.Space
	mmu   *mmu.MMU
	meter *cost.Meter

	// frameRefs counts, per frame, how many of this process's virtual
	// pages map it. Aliasing (Insight 1) makes this >1; a frame is
	// returned to the machine only when its last mapping goes away. The
	// machine numbers frames densely from zero, so this is a slice indexed
	// by FrameID, grown on demand, not a map.
	frameRefs []int32

	// inject is the per-process fault injector (nil = no injection).
	inject *Injector

	// Observability (metrics.go): per-kind syscall accounting, the trap
	// cycle total, the per-site attribution profile, and the scoped site
	// label the layers above set around their operations.
	sysCounts  [numAccountedKinds]uint64
	sysCycles  [numAccountedKinds]uint64
	sysPages   [numAccountedKinds]uint64
	sysHist    [numAccountedKinds]*obs.Histogram
	trapCycles uint64
	gcCycles   uint64
	prof       *obs.SiteProfile
	site       string

	// tracer records cycle-exact spans when span tracing is enabled (nil
	// otherwise — every call site is nil-safe, so the disabled path costs
	// a single pointer check). flight is the always-on last-N event ring
	// snapshotted into trap reports; it charges no simulated cycles.
	tracer *obs.Tracer
	flight *obs.FlightRecorder

	stackBase   vm.Addr
	stackLimit  vm.Addr
	globalBase  vm.Addr
	globalLimit vm.Addr
	globalNext  vm.Addr
}

// NewProcess creates a process on sys with a fresh address space, stack, and
// globals segment.
func NewProcess(sys *System, cfg Config) (*Process, error) {
	if cfg.StackPages == 0 {
		cfg.StackPages = 256
	}
	if cfg.GlobalPages == 0 {
		cfg.GlobalPages = 64
	}
	space := vm.NewSpace()
	if cfg.LegacyPageTable {
		space = vm.NewLegacyMapSpace()
	}
	if cfg.VABudgetPages != 0 {
		if need := cfg.StackPages + cfg.GlobalPages; cfg.VABudgetPages < need {
			return nil, fmt.Errorf("kernel: VA budget of %d pages cannot cover the %d fixed stack+globals pages", cfg.VABudgetPages, need)
		}
		space.SetBudget(cfg.VABudgetPages)
	}
	meter := cost.NewMeter(cfg.Model)
	m := mmu.New(space, sys.mem, meter, cfg.MMU)
	p := &Process{
		sys:    sys,
		space:  space,
		mmu:    m,
		meter:  meter,
		inject: cfg.Faults.NewInjector(sys.procSeq),
		prof:   obs.NewSiteProfile(),
		flight: obs.NewFlightRecorder(obs.DefaultFlightCap),
	}
	sys.procSeq++

	// Program setup (loader work): not charged to the meter, as the paper
	// measures steady-state execution.
	gBase, err := p.mapFresh(cfg.GlobalPages, false)
	if err != nil {
		return nil, fmt.Errorf("kernel: map globals: %w", err)
	}
	sBase, err := p.mapFresh(cfg.StackPages, false)
	if err != nil {
		return nil, fmt.Errorf("kernel: map stack: %w", err)
	}
	p.globalBase = gBase
	p.globalNext = gBase
	p.globalLimit = gBase + cfg.GlobalPages*vm.PageSize
	p.stackBase = sBase
	p.stackLimit = sBase + cfg.StackPages*vm.PageSize
	return p, nil
}

// MMU returns the process MMU, the path all program loads and stores take.
func (p *Process) MMU() *mmu.MMU { return p.mmu }

// Space returns the process address space.
func (p *Process) Space() *vm.Space { return p.space }

// Meter returns the process cycle meter.
func (p *Process) Meter() *cost.Meter { return p.meter }

// System returns the machine this process runs on.
func (p *Process) System() *System { return p.sys }

// StackBase returns the lowest stack address; StackLimit the first address
// past the stack. The interpreter grows its frame pointer upward from
// StackBase.
func (p *Process) StackBase() vm.Addr  { return p.stackBase }
func (p *Process) StackLimit() vm.Addr { return p.stackLimit }

// GlobalsRange returns the currently allocated portion of the globals
// segment [base, next): the conservative collector's data-segment roots.
func (p *Process) GlobalsRange() (vm.Addr, vm.Addr) {
	return p.globalBase, p.globalNext
}

// AllocGlobal carves size bytes (8-byte aligned) out of the globals segment.
// Loader work, not charged.
func (p *Process) AllocGlobal(size uint64) (vm.Addr, error) {
	size = (size + 7) &^ 7
	if p.globalNext+size > p.globalLimit {
		return 0, fmt.Errorf("kernel: globals segment exhausted (%d bytes requested)", size)
	}
	a := p.globalNext
	p.globalNext += size
	return a, nil
}

// mapPage installs a mapping and maintains the frame refcount. Callers must
// have dropped any previous mapping of v first (dropMapping), so replacement
// never leaks a frame.
func (p *Process) mapPage(v vm.VPN, f phys.FrameID, prot vm.Prot) {
	p.space.Map(v, f, prot)
	for int(f) >= len(p.frameRefs) {
		p.frameRefs = append(p.frameRefs, 0)
	}
	p.frameRefs[f]++
}

// mapFresh reserves and maps n fresh pages RW, charging an mmap syscall if
// charge is set.
func (p *Process) mapFresh(n uint64, charge bool) (vm.Addr, error) {
	vpn, err := p.space.ReservePages(n)
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < n; i++ {
		f, err := p.sys.mem.AllocFrame()
		if err != nil {
			return 0, err
		}
		p.mapPage(vpn+vm.VPN(i), f, vm.ProtRW)
	}
	if charge {
		p.chargeSyscall(SysMmap, n)
	}
	return uint64(vpn) << vm.PageShift, nil
}

// Mmap allocates length bytes of fresh zeroed memory at a kernel-chosen
// address (anonymous private mapping), rounded up to whole pages.
func (p *Process) Mmap(length uint64) (vm.Addr, error) {
	n := (length + vm.PageSize - 1) / vm.PageSize
	if n == 0 {
		return 0, fmt.Errorf("kernel: mmap of zero length")
	}
	if err := p.checkInject(SysMmap, n, true, true); err != nil {
		return 0, err
	}
	return p.mapFresh(n, true)
}

// MmapFixed maps n pages RW at the given page-aligned address, backed by
// fresh zeroed frames, replacing any existing mappings (MAP_FIXED). This is
// how virtual pages taken from the shared free list are recycled as new pool
// pages.
func (p *Process) MmapFixed(addr vm.Addr, n uint64) error {
	if vm.Offset(addr) != 0 || n == 0 {
		return fmt.Errorf("kernel: bad fixed mapping %#x/%d pages", addr, n)
	}
	if err := p.checkInject(SysMmap, n, false, true); err != nil {
		return err
	}
	vpn := vm.PageOf(addr)
	for i := uint64(0); i < n; i++ {
		v := vpn + vm.VPN(i)
		if err := p.dropMapping(v); err != nil {
			return err
		}
		f, err := p.sys.mem.AllocFrame()
		if err != nil {
			return err
		}
		p.mapPage(v, f, vm.ProtRW)
		p.mmu.FlushPage(v)
	}
	p.chargeSyscall(SysMmap, n)
	return nil
}

// dropMapping removes a mapping if present and releases its frame when this
// was the last virtual page referencing it.
func (p *Process) dropMapping(v vm.VPN) error {
	frame, _, ok := p.space.Lookup(v)
	if !ok {
		return nil
	}
	if err := p.space.Unmap(v); err != nil {
		return err
	}
	p.frameRefs[frame]--
	if p.frameRefs[frame] <= 0 {
		p.frameRefs[frame] = 0
		if err := p.sys.mem.FreeFrame(frame); err != nil {
			return err
		}
	}
	return nil
}

// Munmap unmaps n pages starting at the page-aligned addr, freeing frames
// whose last mapping is removed.
func (p *Process) Munmap(addr vm.Addr, n uint64) error {
	if vm.Offset(addr) != 0 || n == 0 {
		return fmt.Errorf("kernel: bad munmap %#x/%d pages", addr, n)
	}
	vpn := vm.PageOf(addr)
	for i := uint64(0); i < n; i++ {
		v := vpn + vm.VPN(i)
		if err := p.dropMapping(v); err != nil {
			return err
		}
		p.mmu.FlushPage(v)
	}
	p.chargeSyscall(SysMmap, n)
	return nil
}

// Mprotect sets the protection of n pages starting at the page-aligned addr.
// This is the deallocation-side syscall of the paper's scheme: freed objects'
// shadow pages become ProtNone so any later use traps.
func (p *Process) Mprotect(addr vm.Addr, n uint64, prot vm.Prot) error {
	if vm.Offset(addr) != 0 || n == 0 {
		return fmt.Errorf("kernel: bad mprotect %#x/%d pages", addr, n)
	}
	if err := p.checkInject(SysMprotect, n, false, false); err != nil {
		return err
	}
	vpn := vm.PageOf(addr)
	for i := uint64(0); i < n; i++ {
		v := vpn + vm.VPN(i)
		if err := p.space.Protect(v, prot); err != nil {
			return err
		}
		p.mmu.FlushPage(v)
	}
	p.chargeSyscall(SysMprotect, n)
	return nil
}

// MprotectRuns changes the protection of several page runs in one kernel
// crossing. No 2006 kernel had this call; it models the batched-protection
// OS enhancement the paper's §6 proposes for allocation-intensive programs
// (one syscall amortized over many deallocations). Per-page page-table and
// shootdown work is still charged.
func (p *Process) MprotectRuns(runs [][2]uint64, prot vm.Prot) error {
	var pages uint64
	for _, r := range runs {
		addr, n := r[0], r[1]
		if vm.Offset(addr) != 0 || n == 0 {
			return fmt.Errorf("kernel: bad mprotect run %#x/%d pages", addr, n)
		}
		pages += n
	}
	if err := p.checkInject(SysMprotectRuns, pages, false, false); err != nil {
		return err
	}
	for _, r := range runs {
		addr, n := r[0], r[1]
		vpn := vm.PageOf(addr)
		for i := uint64(0); i < n; i++ {
			v := vpn + vm.VPN(i)
			if err := p.space.Protect(v, prot); err != nil {
				return err
			}
			p.mmu.FlushPage(v)
		}
	}
	p.chargeSyscall(SysMprotectRuns, pages)
	return nil
}

// MremapAlias is the allocation-side syscall of the paper's scheme:
// mremap(old_address, old_size = 0, new_size) returns a fresh page-aligned
// block of virtual memory aliased to the same physical frames as the pages
// starting at old_address. The old mapping stays intact.
func (p *Process) MremapAlias(oldAddr vm.Addr, n uint64) (vm.Addr, error) {
	if vm.Offset(oldAddr) != 0 || n == 0 {
		return 0, fmt.Errorf("kernel: bad mremap %#x/%d pages", oldAddr, n)
	}
	if err := p.checkInject(SysMremap, n, true, false); err != nil {
		return 0, err
	}
	oldVPN := vm.PageOf(oldAddr)
	newVPN, err := p.space.ReservePages(n)
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < n; i++ {
		frame, _, ok := p.space.Lookup(oldVPN + vm.VPN(i))
		if !ok {
			return 0, fmt.Errorf("kernel: mremap of unmapped page %#x", oldAddr+i*vm.PageSize)
		}
		p.mapPage(newVPN+vm.VPN(i), frame, vm.ProtRW)
	}
	p.chargeSyscall(SysMremap, n)
	return uint64(newVPN) << vm.PageShift, nil
}

// RemapFixedAlias points n already-reserved virtual pages starting at addr
// at the frames backing the pages starting at srcAddr, with protection RW.
// It is used when recycling shadow pages from the shared free list (the
// aliasing equivalent of MmapFixed). Existing mappings at addr are replaced.
func (p *Process) RemapFixedAlias(addr, srcAddr vm.Addr, n uint64) error {
	if vm.Offset(addr) != 0 || vm.Offset(srcAddr) != 0 || n == 0 {
		return fmt.Errorf("kernel: bad fixed alias %#x<-%#x/%d", addr, srcAddr, n)
	}
	if err := p.checkInject(SysMremap, n, false, false); err != nil {
		return err
	}
	dst := vm.PageOf(addr)
	src := vm.PageOf(srcAddr)
	for i := uint64(0); i < n; i++ {
		frame, _, ok := p.space.Lookup(src + vm.VPN(i))
		if !ok {
			return fmt.Errorf("kernel: alias of unmapped page %#x", srcAddr+i*vm.PageSize)
		}
		if err := p.dropMapping(dst + vm.VPN(i)); err != nil {
			return err
		}
		p.mapPage(dst+vm.VPN(i), frame, vm.ProtRW)
		p.mmu.FlushPage(dst + vm.VPN(i))
	}
	p.chargeSyscall(SysMremap, n)
	return nil
}

// Exit tears the process down, releasing every frame its address space
// references back to the machine. The §4.3 servers fork a process per
// connection and rely on exit to reclaim both physical memory and (in the
// real OS) the per-process page table — "any wastage in address space in one
// connection is not carried over to the other connections".
func (p *Process) Exit() error {
	var vpns []vm.VPN
	p.space.ForEach(func(v vm.VPN, _ phys.FrameID, _ vm.Prot) {
		vpns = append(vpns, v)
	})
	// Deterministic teardown order: frame free-list order decides which
	// physical frames the *next* process gets, and the data cache is
	// physically indexed — map-iteration order here would make multi-
	// process measurements nondeterministic.
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, v := range vpns {
		if err := p.dropMapping(v); err != nil {
			return err
		}
	}
	return nil
}

// DummySyscall charges the cost of one no-op syscall. The paper's
// "PA + dummy syscalls" configuration isolates syscall overhead from TLB
// overhead by issuing a dummy mremap per allocation and a dummy mprotect per
// deallocation.
func (p *Process) DummySyscall() {
	p.chargeSyscall(SysDummy, 0)
}
