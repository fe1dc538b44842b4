package phys

import (
	"errors"
	"testing"
	"testing/quick"
)

// TestAllocFrameZeroed: a never-written frame reads the shared zero array,
// and a written frame that is freed and reallocated reads zero again.
func TestAllocFrameZeroed(t *testing.T) {
	m := NewMemory(0)
	id, err := m.AllocFrame()
	if err != nil {
		t.Fatalf("AllocFrame: %v", err)
	}
	if f := m.Frame(id); f != &zeroFrame || *f != ([PageSize]byte{}) {
		t.Fatal("a never-written frame does not read the shared zero array")
	}
	m.FrameForWrite(id)[123] = 0xAB
	if err := m.FreeFrame(id); err != nil {
		t.Fatalf("FreeFrame: %v", err)
	}
	id2, err := m.AllocFrame()
	if err != nil {
		t.Fatalf("AllocFrame (reuse): %v", err)
	}
	if id2 != id {
		t.Fatalf("expected frame reuse, got %d then %d", id, id2)
	}
	if got := m.Frame(id2)[123]; got != 0 {
		t.Fatalf("recycled frame not zeroed: byte = %#x", got)
	}
}

func TestFrameBudget(t *testing.T) {
	m := NewMemory(2)
	if _, err := m.AllocFrame(); err != nil {
		t.Fatalf("alloc 1: %v", err)
	}
	f2, err := m.AllocFrame()
	if err != nil {
		t.Fatalf("alloc 2: %v", err)
	}
	if _, err := m.AllocFrame(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	if err := m.FreeFrame(f2); err != nil {
		t.Fatalf("free: %v", err)
	}
	if _, err := m.AllocFrame(); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	m := NewMemory(0)
	id, err := m.AllocFrame()
	if err != nil {
		t.Fatalf("AllocFrame: %v", err)
	}
	if err := m.FreeFrame(id); err != nil {
		t.Fatalf("first free: %v", err)
	}
	if err := m.FreeFrame(id); err == nil {
		t.Fatal("double free not detected")
	}
}

func TestFreeInvalidFrame(t *testing.T) {
	m := NewMemory(0)
	if err := m.FreeFrame(42); err == nil {
		t.Fatal("free of never-allocated frame not detected")
	}
}

func TestPeakInUse(t *testing.T) {
	m := NewMemory(0)
	var ids []FrameID
	for i := 0; i < 5; i++ {
		id, err := m.AllocFrame()
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := m.FreeFrame(id); err != nil {
			t.Fatalf("free: %v", err)
		}
	}
	if m.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", m.InUse())
	}
	if m.PeakInUse() != 5 {
		t.Fatalf("PeakInUse = %d, want 5", m.PeakInUse())
	}
}

// TestAllocFreeBalance property: any interleaving of allocs and frees keeps
// InUse equal to the live count.
func TestAllocFreeBalance(t *testing.T) {
	f := func(ops []bool) bool {
		m := NewMemory(0)
		var live []FrameID
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				id, err := m.AllocFrame()
				if err != nil {
					return false
				}
				live = append(live, id)
			} else {
				id := live[len(live)-1]
				live = live[:len(live)-1]
				if err := m.FreeFrame(id); err != nil {
					return false
				}
			}
			if m.InUse() != uint64(len(live)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
