// Package vm simulates a per-process virtual address space: a page table
// mapping virtual page numbers to physical frames with per-page protection
// bits, plus a bump allocator for fresh virtual page ranges.
//
// Two properties the paper depends on are implemented exactly:
//
//   - Aliasing: any number of virtual pages may map to the same physical
//     frame, each with its own protection bits. This is what lets the shadow
//     page of a freed object be PROT_NONE while the canonical page (and
//     therefore the physical memory) stays in use (Insight 1).
//   - A 47-bit user address space, matching the paper's §3.4 exhaustion
//     calculation (2^47 bytes / (2^12 bytes/µs) ≈ 9.5 hours).
package vm

import (
	"fmt"

	"repro/internal/sim/phys"
)

// Prot is a page protection bit set.
type Prot uint8

// Protection bits. ProtNone (no bits) makes any access fault, which is how
// freed objects' shadow pages are poisoned.
const (
	ProtNone Prot = 0
	ProtRead Prot = 1 << iota
	ProtWrite
)

// ProtRW is the common read+write protection for freshly mapped pages.
const ProtRW = ProtRead | ProtWrite

// String renders the protection like "rw", "r-", or "--".
func (p Prot) String() string {
	b := []byte{'-', '-'}
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	return string(b)
}

// Addr is a simulated virtual address.
type Addr = uint64

// Page geometry, re-exported from phys for convenience.
const (
	PageSize  = phys.PageSize
	PageShift = phys.PageShift
)

// UserAddrBits is the width of the simulated user virtual address space.
// The paper assumes a maximum of 2^47 bytes for a user program on 64-bit
// Linux.
const UserAddrBits = 47

// UserAddrLimit is the first address beyond the user address space.
const UserAddrLimit Addr = 1 << UserAddrBits

// VPN is a virtual page number (Addr >> PageShift).
type VPN uint64

// PageOf returns the VPN containing addr.
func PageOf(addr Addr) VPN { return VPN(addr >> PageShift) }

// PageBase returns the first address of the page containing addr.
func PageBase(addr Addr) Addr { return addr &^ (PageSize - 1) }

// Offset returns the offset of addr within its page.
func Offset(addr Addr) uint64 { return addr & (PageSize - 1) }

// PageSpan returns the number of pages covered by [addr, addr+size).
func PageSpan(addr Addr, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	first := uint64(PageOf(addr))
	last := uint64(PageOf(addr + size - 1))
	return last - first + 1
}

// AccessKind distinguishes the operation that caused a fault.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota + 1
	AccessWrite
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return fmt.Sprintf("access(%d)", uint8(k))
	}
}

// FaultReason classifies a fault.
type FaultReason uint8

// Fault reasons. FaultProtection is the MMU check the whole detection scheme
// rides on: the page is mapped but its protection bits forbid the access.
const (
	FaultUnmapped FaultReason = iota + 1
	FaultProtection
)

// String implements fmt.Stringer.
func (r FaultReason) String() string {
	switch r {
	case FaultUnmapped:
		return "unmapped"
	case FaultProtection:
		return "protection"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// Fault is a simulated hardware memory fault (the SIGSEGV equivalent).
type Fault struct {
	Addr   Addr
	Access AccessKind
	Reason FaultReason
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("fault: %s of %#x (%s)", f.Access, f.Addr, f.Reason)
}

// pte is one page-table entry. present distinguishes a live entry from an
// absent one: ProtNone is a valid protection for a *mapped* page (that is how
// freed shadow pages are poisoned), so the protection bits cannot double as a
// presence flag.
type pte struct {
	frame   phys.FrameID
	prot    Prot
	present bool
}

// Radix page-table geometry. A VPN has UserAddrBits-PageShift = 35
// significant bits, split across three levels (11 + 12 + 12) exactly like a
// hardware page-table walk: top-level directory of 2048 entries, mid-level
// directories of 4096, and leaves of 4096 PTEs. The bump allocator hands out
// VPNs densely from the bottom of the space, so leaves fill up before new
// ones are needed and the tree stays shallow and compact.
const (
	radixLeafBits = 12
	radixMidBits  = 12
	radixTopBits  = UserAddrBits - PageShift - radixLeafBits - radixMidBits

	radixLeafSize = 1 << radixLeafBits
	radixMidSize  = 1 << radixMidBits
	radixTopSize  = 1 << radixTopBits

	radixLeafMask = radixLeafSize - 1
	radixMidMask  = radixMidSize - 1
)

type radixLeaf struct {
	ptes [radixLeafSize]pte
}

type radixMid struct {
	leaves [radixMidSize]*radixLeaf
}

// Space is one process's virtual address space. It owns no physical memory;
// frames are allocated and freed by the kernel layer, which also decides
// frame lifetimes under aliasing. Not safe for concurrent use.
//
// The page table is a three-level radix tree (see the geometry constants
// above): Translate is three array indexings instead of a map hash, which is
// what keeps the simulated load/store fast path free of hashing.
type Space struct {
	root [radixTopSize]*radixMid
	// mapped is the live page-table entry count.
	mapped uint64
	// epoch increments on every Map/Protect/Unmap so the MMU's one-entry
	// translation cache can validate itself without a table walk.
	epoch uint64
	// next is the bump pointer for fresh virtual page allocation. Starting
	// above zero keeps address 0 (NULL) permanently unmapped.
	next VPN
	// peakMapped tracks the high-water mark of live page-table entries,
	// one of the §3.4 costs (page-table entries tied up by non-reusable
	// virtual pages).
	peakMapped uint64
	// everMapped counts distinct fresh VPNs handed out by ReservePages,
	// i.e. total virtual address space consumed.
	everMapped uint64
	// budget, when nonzero, caps everMapped below the architectural
	// 47-bit limit: ReservePages fails with ErrAddressSpaceExhausted once
	// cumulative fresh reservations would exceed it. This compresses the
	// §3.4 exhaustion cliff into simulatable runs. Pages recycled by
	// aliasing (MmapFixed/RemapFixedAlias over already-reserved VPNs) do
	// not count against the budget, matching the mitigation model: once
	// reserved, address space can be reused forever.
	budget uint64
}

// NewSpace returns an empty address space backed by the radix page table.
func NewSpace() *Space {
	return &Space{
		next: 16, // leave the first 64 KB unmapped (NULL guard)
	}
}

// Epoch returns the page-table mutation counter. Any cached translation made
// at an earlier epoch may be stale.
func (s *Space) Epoch() uint64 { return s.epoch }

// lookupPTE returns a pointer to the live entry for vpn, or nil when the
// page is unmapped (or the radix path is not populated).
func (s *Space) lookupPTE(vpn VPN) *pte {
	top := vpn >> (radixMidBits + radixLeafBits)
	if top >= radixTopSize {
		return nil // beyond the 47-bit user space: never mapped
	}
	mid := s.root[top]
	if mid == nil {
		return nil
	}
	leaf := mid.leaves[(vpn>>radixLeafBits)&radixMidMask]
	if leaf == nil {
		return nil
	}
	e := &leaf.ptes[vpn&radixLeafMask]
	if !e.present {
		return nil
	}
	return e
}

// ensurePTE returns a pointer to the (possibly absent) entry for vpn,
// allocating radix nodes along the path as needed.
func (s *Space) ensurePTE(vpn VPN) *pte {
	top := vpn >> (radixMidBits + radixLeafBits)
	mid := s.root[top]
	if mid == nil {
		mid = new(radixMid)
		s.root[top] = mid
	}
	li := (vpn >> radixLeafBits) & radixMidMask
	leaf := mid.leaves[li]
	if leaf == nil {
		leaf = new(radixLeaf)
		mid.leaves[li] = leaf
	}
	return &leaf.ptes[vpn&radixLeafMask]
}

// ErrAddressSpaceExhausted is reported when ReservePages passes the 47-bit
// limit — the failure mode the paper's Insight 2 exists to avoid.
var ErrAddressSpaceExhausted = fmt.Errorf("vm: virtual address space exhausted (2^%d bytes)", UserAddrBits)

// ReservePages hands out n fresh, never-before-used consecutive virtual
// pages and returns the first VPN. The pages are not mapped yet.
func (s *Space) ReservePages(n uint64) (VPN, error) {
	if n == 0 {
		return 0, fmt.Errorf("vm: reserve of zero pages")
	}
	if uint64(s.next)+n > UserAddrLimit>>PageShift {
		return 0, ErrAddressSpaceExhausted
	}
	if s.budget != 0 && s.everMapped+n > s.budget {
		return 0, ErrAddressSpaceExhausted
	}
	v := s.next
	s.next += VPN(n)
	s.everMapped += n
	return v, nil
}

// Map installs a mapping from vpn to frame with protection prot, replacing
// any existing entry. vpn must lie inside the 47-bit user space (ReservePages
// never hands out anything else).
func (s *Space) Map(vpn VPN, frame phys.FrameID, prot Prot) {
	s.epoch++
	if uint64(vpn) >= UserAddrLimit>>PageShift {
		panic(fmt.Sprintf("vm: map of page %#x beyond the %d-bit user space", uint64(vpn)<<PageShift, UserAddrBits))
	}
	e := s.ensurePTE(vpn)
	if !e.present {
		s.noteMapped()
	}
	*e = pte{frame: frame, prot: prot, present: true}
}

// noteMapped bumps the live-entry count and its high-water mark.
func (s *Space) noteMapped() {
	s.mapped++
	if s.mapped > s.peakMapped {
		s.peakMapped = s.mapped
	}
}

// Unmap removes the mapping for vpn. Unmapping an unmapped page is an error
// (the kernel layer never does it).
func (s *Space) Unmap(vpn VPN) error {
	s.epoch++
	e := s.lookupPTE(vpn)
	if e == nil {
		return fmt.Errorf("vm: unmap of unmapped page %#x", uint64(vpn)<<PageShift)
	}
	*e = pte{}
	s.mapped--
	return nil
}

// Protect sets the protection bits of vpn.
func (s *Space) Protect(vpn VPN, prot Prot) error {
	s.epoch++
	e := s.lookupPTE(vpn)
	if e == nil {
		return fmt.Errorf("vm: protect of unmapped page %#x", uint64(vpn)<<PageShift)
	}
	e.prot = prot
	return nil
}

// Lookup returns the frame and protection of vpn.
func (s *Space) Lookup(vpn VPN) (phys.FrameID, Prot, bool) {
	e := s.lookupPTE(vpn)
	if e == nil {
		return 0, 0, false
	}
	return e.frame, e.prot, true
}

// Translate checks an access of the given kind to addr and returns the frame
// backing it. On failure it returns a *Fault.
func (s *Space) Translate(addr Addr, kind AccessKind) (phys.FrameID, *Fault) {
	e := s.lookupPTE(PageOf(addr))
	if e == nil {
		return 0, &Fault{Addr: addr, Access: kind, Reason: FaultUnmapped}
	}
	need := ProtRead
	if kind == AccessWrite {
		need = ProtWrite
	}
	if e.prot&need == 0 {
		return 0, &Fault{Addr: addr, Access: kind, Reason: FaultProtection}
	}
	return e.frame, nil
}

// ForEach calls fn for every live page-table entry in ascending VPN order.
// Used by the kernel's teardown and the conservative-GC study.
func (s *Space) ForEach(fn func(VPN, phys.FrameID, Prot)) {
	for ti, mid := range s.root {
		if mid == nil {
			continue
		}
		for mi, leaf := range mid.leaves {
			if leaf == nil {
				continue
			}
			base := VPN(ti)<<(radixMidBits+radixLeafBits) | VPN(mi)<<radixLeafBits
			for li := range leaf.ptes {
				if e := &leaf.ptes[li]; e.present {
					fn(base|VPN(li), e.frame, e.prot)
				}
			}
		}
	}
}

// MappedPages returns the number of live page-table entries.
func (s *Space) MappedPages() uint64 { return s.mapped }

// PeakMappedPages returns the high-water mark of live page-table entries.
func (s *Space) PeakMappedPages() uint64 { return s.peakMapped }

// ReservedPages returns the total number of fresh virtual pages ever handed
// out — the paper's "virtual address space usage".
func (s *Space) ReservedPages() uint64 { return s.everMapped }

// NextFreshPage returns the VPN the next ReservePages call would hand out.
// Exposed for the exhaustion study.
func (s *Space) NextFreshPage() VPN { return s.next }

// SetBudget caps the total number of fresh virtual pages ReservePages may
// ever hand out. Zero removes the cap (the architectural 47-bit limit still
// applies). Reservations already made are never revoked; a budget below
// ReservedPages() simply makes every further fresh reservation fail.
func (s *Space) SetBudget(pages uint64) { s.budget = pages }

// BudgetPages returns the configured fresh-reservation cap, or 0 when only
// the architectural limit applies.
func (s *Space) BudgetPages() uint64 { return s.budget }
