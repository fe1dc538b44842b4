package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim/vm"
)

// topVPN is the highest user VPN (a 47-bit address space of 4 KB pages).
const topVPN = vm.VPN(vm.UserAddrLimit>>vm.PageShift) - 1

// checkIndex compares x with the reference map entry by entry: lookups,
// the ascending walk, and one chunk per distinct chunk key in use.
func checkIndex(t *testing.T, x *pageIndex, ref map[vm.VPN]*Object) {
	t.Helper()
	for v, want := range ref {
		if got := x.get(v); got != want {
			t.Fatalf("get(%#x) = %p, want %p", v, got, want)
		}
	}
	var walked []vm.VPN
	x.each(func(v vm.VPN, obj *Object) bool {
		if n := len(walked); n > 0 && walked[n-1] >= v {
			t.Fatalf("each visits %#x after %#x", v, walked[n-1])
		}
		if ref[v] != obj {
			t.Fatalf("each(%#x) = %p, reference has %p", v, obj, ref[v])
		}
		walked = append(walked, v)
		return true
	})
	if len(walked) != len(ref) {
		t.Fatalf("each visited %d pages, reference has %d", len(walked), len(ref))
	}
	keys := make(map[uint64]bool)
	for v := range ref {
		keys[uint64(v)>>pageChunkBits] = true
	}
	if len(x.chunks) != len(keys) {
		t.Fatalf("index holds %d chunks, %d chunk keys in use (empty chunks must be released)", len(x.chunks), len(keys))
	}
	for _, c := range x.chunks {
		n := 0
		for _, obj := range &c.objs {
			if obj != nil {
				n++
			}
		}
		if n != c.n {
			t.Fatalf("chunk %#x counts %d entries, holds %d", c.key, c.n, n)
		}
	}
}

func TestPageIndexBasics(t *testing.T) {
	var x pageIndex
	a, b := &Object{}, &Object{}
	if x.get(0) != nil || x.get(topVPN) != nil {
		t.Fatal("empty index returned an object")
	}
	// A run crossing a chunk boundary, then a second object overwriting
	// part of it.
	x.setRun(pageChunkSize-2, 5, a)
	x.setRun(pageChunkSize, 1, b)
	for v, want := range map[vm.VPN]*Object{
		pageChunkSize - 3: nil, pageChunkSize - 2: a, pageChunkSize - 1: a,
		pageChunkSize: b, pageChunkSize + 1: a, pageChunkSize + 2: a, pageChunkSize + 3: nil,
	} {
		if got := x.get(v); got != want {
			t.Errorf("get(%#x) = %p, want %p", v, got, want)
		}
	}
	if len(x.chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(x.chunks))
	}
	// Clearing a's run leaves b's page, which a no longer owns.
	x.clearRun(pageChunkSize-2, 5, a)
	if x.get(pageChunkSize) != b || x.get(pageChunkSize-2) != nil {
		t.Fatal("clearRun removed another object's page or kept its own")
	}
	if len(x.chunks) != 1 {
		t.Fatalf("chunks = %d after the lower chunk emptied, want 1", len(x.chunks))
	}
	// The top of the address space and an early stop of the walk.
	x.setRun(topVPN-1, 2, a)
	var seen []vm.VPN
	x.each(func(v vm.VPN, _ *Object) bool {
		seen = append(seen, v)
		return len(seen) < 2
	})
	if want := []vm.VPN{pageChunkSize, topVPN - 1}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("each = %v, want %v", seen, want)
	}
	x.clearRun(pageChunkSize, 1, b)
	x.clearRun(topVPN-1, 2, a)
	if len(x.chunks) != 0 {
		t.Fatalf("emptied index keeps %d chunks", len(x.chunks))
	}
}

// TestPageIndexMatchesMap drives the index and a reference map with the same
// random run stores and owner-checked run clears, over dense runs, sparse
// VPNs and VPNs at the top of the address space.
func TestPageIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var x pageIndex
		ref := make(map[vm.VPN]*Object)
		type run struct {
			base  vm.VPN
			pages uint64
			obj   *Object
		}
		var runs []run
		pick := func() (vm.VPN, uint64) {
			switch rng.Intn(3) {
			case 0: // dense: bump-allocator territory, runs of up to 40 pages
				return vm.VPN(16 + rng.Intn(3*pageChunkSize)), uint64(1 + rng.Intn(40))
			case 1: // sparse: anywhere, single pages or short runs
				return vm.VPN(rng.Int63n(int64(topVPN))), uint64(1 + rng.Intn(3))
			default: // the top of the address space
				pages := uint64(1 + rng.Intn(8))
				return topVPN - vm.VPN(pages) + 1 - vm.VPN(rng.Intn(2*pageChunkSize)), pages
			}
		}
		for op := 0; op < 2000; op++ {
			switch {
			case rng.Intn(5) < 3 || len(runs) == 0:
				base, pages := pick()
				obj := &Object{}
				x.setRun(base, pages, obj)
				for i := uint64(0); i < pages; i++ {
					ref[base+vm.VPN(i)] = obj
				}
				runs = append(runs, run{base, pages, obj})
			default:
				i := rng.Intn(len(runs))
				r := runs[i]
				runs = append(runs[:i], runs[i+1:]...)
				x.clearRun(r.base, r.pages, r.obj)
				for j := uint64(0); j < r.pages; j++ {
					if v := r.base + vm.VPN(j); ref[v] == r.obj {
						delete(ref, v)
					}
				}
			}
			if op%100 == 0 {
				// Probe misses too: random VPNs mostly hit no entry.
				for k := 0; k < 50; k++ {
					v, _ := pick()
					if got := x.get(v); got != ref[v] {
						t.Fatalf("seed %d: get(%#x) = %p, want %p", seed, v, got, ref[v])
					}
				}
				checkIndex(t, &x, ref)
			}
		}
		for _, r := range runs {
			x.clearRun(r.base, r.pages, r.obj)
		}
		if len(x.chunks) != 0 {
			t.Fatalf("seed %d: %d chunks left after clearing every run", seed, len(x.chunks))
		}
	}
}

// TestPageIndexChurnBounded: a recycle-heavy workload — runs stored, cleared
// and stored again over a sliding window of VPNs — keeps only the chunks the
// window covers.
func TestPageIndexChurnBounded(t *testing.T) {
	var x pageIndex
	const window = 64 // live runs
	const pages = 24
	var live []vm.VPN
	objs := make(map[vm.VPN]*Object)
	next := vm.VPN(16)
	maxChunks := 0
	for i := 0; i < 20000; i++ {
		obj := &Object{}
		x.setRun(next, pages, obj)
		objs[next] = obj
		live = append(live, next)
		next += pages
		if len(live) > window {
			old := live[0]
			live = live[1:]
			x.clearRun(old, pages, objs[old])
			delete(objs, old)
		}
		if len(x.chunks) > maxChunks {
			maxChunks = len(x.chunks)
		}
	}
	// window*pages = 1536 live pages span at most two chunks.
	if maxChunks > 2 {
		t.Fatalf("index grew to %d chunks for %d live pages", maxChunks, window*pages)
	}
}

// TestHealthCheckReportsLowestPage: with two pages breaking an invariant, the
// audit reports the one at the lower address, every time.
func TestHealthCheckReportsLowestPage(t *testing.T) {
	f := newFixture(t, NeverReuse())
	a := f.alloc(t, 64)
	b := f.alloc(t, 64)
	c := f.alloc(t, 64)
	pages := []vm.VPN{vm.PageOf(b), vm.PageOf(c)}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	// Index both pages to a, whose run covers neither.
	obj := f.rm.ObjectAt(a)
	for _, v := range pages {
		f.rm.objects.setRun(v, 1, obj)
	}
	want := fmt.Sprintf("page %#x indexed to object", uint64(pages[0])<<vm.PageShift)
	first := ""
	for i := 0; i < 50; i++ {
		err := f.rm.HealthCheck()
		if err == nil {
			t.Fatal("corrupted page index passed the health check")
		}
		if i == 0 {
			first = err.Error()
			if !strings.Contains(first, want) {
				t.Fatalf("HealthCheck = %q, want the lowest page (%s)", first, want)
			}
		} else if err.Error() != first {
			t.Fatalf("run %d: HealthCheck = %q, first run said %q", i, err.Error(), first)
		}
	}
}
