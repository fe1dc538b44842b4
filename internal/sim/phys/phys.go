// Package phys simulates physical memory as a pool of page frames.
//
// Frames are allocated and freed by the kernel layer on behalf of address
// spaces. The allocator tracks peak usage so experiments can report physical
// memory consumption (the paper's claim is that the shadow-page scheme keeps
// it essentially identical to the original program, while Electric Fence
// style one-object-per-frame allocation blows it up), and it enforces an
// optional frame budget so the Electric Fence contrast experiment can
// reproduce enscript running out of physical memory.
package phys

import (
	"errors"
	"fmt"
)

// PageSize is the simulated page size in bytes. The paper's calculations
// (for example the 9-hour address-space-exhaustion bound in §3.4) assume
// 4 KB pages.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// ErrOutOfMemory is returned when the frame budget is exhausted. It models
// the OOM kill the paper observes for enscript under Electric Fence.
var ErrOutOfMemory = errors.New("phys: out of physical memory")

// FrameID identifies one physical page frame.
type FrameID uint64

// Memory is a pool of page frames with lazily allocated backing storage.
// It is not safe for concurrent use.
//
// A frame's 4 KiB backing array is made on its first write (FrameForWrite);
// until then reads see one shared, read-only zero array, the way an
// untouched anonymous Linux mapping reads the kernel's zero page. This is
// host-side laziness only: frame IDs, InUse/PeakInUse and the budget count a
// frame from AllocFrame on, so no simulated number depends on it.
type Memory struct {
	// frames[id] is nil until the frame's first write.
	frames    []*[PageSize]byte
	isFree    []bool
	free      []FrameID
	inUse     uint64
	peakInUse uint64
	maxFrames uint64 // 0 means unlimited
}

// zeroFrame backs every frame that has not been written yet. Nothing may
// write it: Frame hands it out read-only.
var zeroFrame [PageSize]byte

// NewMemory returns a Memory with at most maxFrames frames; maxFrames == 0
// means unlimited.
func NewMemory(maxFrames uint64) *Memory {
	return &Memory{maxFrames: maxFrames}
}

// AllocFrame returns a zeroed frame, or ErrOutOfMemory if the budget is
// exhausted.
func (m *Memory) AllocFrame() (FrameID, error) {
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		m.isFree[id] = false
		if f := m.frames[id]; f != nil {
			*f = [PageSize]byte{}
		}
		m.noteAlloc()
		return id, nil
	}
	if m.maxFrames != 0 && uint64(len(m.frames)) >= m.maxFrames {
		return 0, ErrOutOfMemory
	}
	id := FrameID(len(m.frames))
	m.frames = append(m.frames, nil)
	m.isFree = append(m.isFree, false)
	m.noteAlloc()
	return id, nil
}

func (m *Memory) noteAlloc() {
	m.inUse++
	if m.inUse > m.peakInUse {
		m.peakInUse = m.inUse
	}
}

// FreeFrame returns a frame to the pool. Freeing an invalid or already-free
// frame is a programming error in the kernel layer and returns an error so
// tests can catch it.
func (m *Memory) FreeFrame(id FrameID) error {
	if uint64(id) >= uint64(len(m.frames)) {
		return fmt.Errorf("phys: free of invalid frame %d", id)
	}
	if m.isFree[id] {
		return fmt.Errorf("phys: double free of frame %d", id)
	}
	m.isFree[id] = true
	m.free = append(m.free, id)
	m.inUse--
	return nil
}

// Frame returns the backing array of a frame for reading. The caller must
// hold a valid FrameID from AllocFrame. The result is read-only: a frame
// that has never been written returns the shared zero array, so writers
// must use FrameForWrite instead.
func (m *Memory) Frame(id FrameID) *[PageSize]byte {
	if f := m.frames[id]; f != nil {
		return f
	}
	return &zeroFrame
}

// FrameForWrite returns the backing array of a frame for mutation, making
// it on the frame's first write.
func (m *Memory) FrameForWrite(id FrameID) *[PageSize]byte {
	f := m.frames[id]
	if f == nil {
		f = new([PageSize]byte)
		m.frames[id] = f
	}
	return f
}

// InUse returns the number of frames currently allocated.
func (m *Memory) InUse() uint64 { return m.inUse }

// PeakInUse returns the high-water mark of allocated frames.
func (m *Memory) PeakInUse() uint64 { return m.peakInUse }

// Budget returns the frame budget (0 = unlimited).
func (m *Memory) Budget() uint64 { return m.maxFrames }
