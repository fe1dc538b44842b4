package core

import (
	"sort"

	"repro/internal/sim/vm"
)

// pageChunkBits sizes one chunk of the page index: 4096 consecutive VPNs,
// the same span as one leaf of the vm radix page table.
const (
	pageChunkBits = 12
	pageChunkSize = 1 << pageChunkBits
	pageChunkMask = pageChunkSize - 1
)

// pageChunk holds the object pointers of pageChunkSize consecutive VPNs.
type pageChunk struct {
	// key is the chunk's VPN >> pageChunkBits.
	key uint64
	// n counts the non-nil slots; the chunk is released when it reaches 0.
	n    int
	objs [pageChunkSize]*Object
}

// pageIndex maps shadow VPNs to their objects. Shadow runs come from a bump
// allocator and are recycled in place, so the indexed VPNs cluster into a
// few dense ranges: a sorted slice of fixed-size chunks stores a run of
// pages as array stores, answers a lookup with a binary search over the few
// chunks and an index, and iterates in ascending VPN order. Empty chunks are
// released, so memory follows the live set under recycle churn.
type pageIndex struct {
	// chunks is sorted by key.
	chunks []*pageChunk
}

// find returns the chunk holding v, or nil, and the position in chunks
// where it is or would be inserted.
func (x *pageIndex) find(v vm.VPN) (*pageChunk, int) {
	key := uint64(v) >> pageChunkBits
	i := sort.Search(len(x.chunks), func(i int) bool { return x.chunks[i].key >= key })
	if i < len(x.chunks) && x.chunks[i].key == key {
		return x.chunks[i], i
	}
	return nil, i
}

// get returns the object indexed at v, or nil.
func (x *pageIndex) get(v vm.VPN) *Object {
	if c, _ := x.find(v); c != nil {
		return c.objs[v&pageChunkMask]
	}
	return nil
}

// setRun indexes the pages run..run+pages-1 to obj (non-nil), replacing any
// previous entries.
func (x *pageIndex) setRun(run vm.VPN, pages uint64, obj *Object) {
	for end := run + vm.VPN(pages); run < end; {
		c, i := x.find(run)
		if c == nil {
			c = &pageChunk{key: uint64(run) >> pageChunkBits}
			x.chunks = append(x.chunks, nil)
			copy(x.chunks[i+1:], x.chunks[i:])
			x.chunks[i] = c
		}
		lo, hi := chunkSlots(run, end)
		for i := lo; i < hi; i++ {
			if c.objs[i] == nil {
				c.n++
			}
			c.objs[i] = obj
		}
		run += vm.VPN(hi - lo)
	}
}

// clearRun removes the entries of run..run+pages-1 that still point at obj;
// entries another object has since taken over are left alone.
func (x *pageIndex) clearRun(run vm.VPN, pages uint64, obj *Object) {
	for end := run + vm.VPN(pages); run < end; {
		lo, hi := chunkSlots(run, end)
		if c, _ := x.find(run); c != nil {
			for i := lo; i < hi; i++ {
				if c.objs[i] == obj {
					c.objs[i] = nil
					c.n--
				}
			}
			if c.n == 0 {
				x.release(c)
			}
		}
		run += vm.VPN(hi - lo)
	}
}

// chunkSlots returns the slots [lo, hi) that the pages run..end-1 cover in
// the chunk holding run.
func chunkSlots(run, end vm.VPN) (lo, hi int) {
	lo, hi = int(run&pageChunkMask), pageChunkSize
	if rest := end - run; rest < vm.VPN(hi-lo) {
		hi = lo + int(rest)
	}
	return lo, hi
}

// release drops an empty chunk.
func (x *pageIndex) release(c *pageChunk) {
	_, i := x.find(vm.VPN(c.key << pageChunkBits))
	n := len(x.chunks) - 1
	copy(x.chunks[i:], x.chunks[i+1:])
	x.chunks[n] = nil
	x.chunks = x.chunks[:n]
}

// each calls fn for every indexed page in ascending VPN order until fn
// returns false. fn must not modify the index.
func (x *pageIndex) each(fn func(vm.VPN, *Object) bool) {
	for _, c := range x.chunks {
		base := vm.VPN(c.key << pageChunkBits)
		for i, obj := range &c.objs {
			if obj != nil && !fn(base+vm.VPN(i), obj) {
				return
			}
		}
	}
}
