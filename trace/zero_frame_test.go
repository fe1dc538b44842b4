package trace

import (
	"testing"

	"repro/internal/sim/phys"
	"repro/internal/workload"
	"repro/pageguard"
)

// TestSharedZeroFrameUntouched: every machine's never-written frames read
// one shared zero array, so no replay or workload run may write it, or every
// later machine would read its bytes.
func TestSharedZeroFrameUntouched(t *testing.T) {
	mem := phys.NewMemory(0)
	id, err := mem.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	shared := mem.Frame(id)

	replayMiss(t, missTrace(t))
	w, err := workload.ByName("treeadd")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pageguard.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(pageguard.NewMachine(), pageguard.ModeDetect); err != nil {
		t.Fatal(err)
	}
	if *shared != ([phys.PageSize]byte{}) {
		t.Fatal("the shared zero array was written by a replay or a workload run")
	}
}
