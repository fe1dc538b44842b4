package experiment

// Parity tests for the parallel harness, a pure host-time optimization:
// every simulated number — cycles, instruction and syscall counts, TLB and
// cache behaviour, page-table statistics, and the rendered tables — must be
// bit-identical to a sequential run. These tests enforce that by running
// the same cells through worker counts 1 and 8 and requiring deep equality
// of everything a Measurement carries. The committed table goldens pin the
// numbers themselves.

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// parityCells is the (workload, configuration) subset the cell-level parity
// test sweeps: one workload per category, under configurations that exercise
// every runtime family (plain, shadow-paged, statically elided, and the
// Electric Fence baseline whose one-object-per-page layout stresses the page
// table hardest).
func parityCells(t *testing.T) []Cell {
	t.Helper()
	cells := []Cell{}
	for _, pc := range []struct {
		workload string
		config   Config
	}{
		{"perimeter", Ours},
		{"power", LLVMBase},
		{"tsp", OursStatic},
		{"power", EFence},
		{"jwhois", Ours},
		{"telnetd", Ours},
	} {
		w, err := workload.ByName(pc.workload)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, Cell{Workload: w, Config: pc.config})
	}
	return cells
}

// TestRunCellsParallelParity fans the parity cells out across 8 workers and
// requires Measurements deeply equal to the sequential run — the simulated
// numbers must be independent of scheduling and worker count.
func TestRunCellsParallelParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each parity cell twice")
	}
	cells := parityCells(t)
	seq, err := RunCells(cells, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCells(cells, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		name := cells[i].Workload.Name + "/" + cells[i].Config.String()
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("%s: -j 1 and -j 8 measurements differ:\nseq: %+v\npar: %+v",
				name, seq[i], par[i])
		}
	}
}

// TestTable2ParallelByteIdentical renders Table 2 sequentially and with 8
// workers and requires byte-identical text — the property the pgbench -j
// flag documents.
func TestTable2ParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("generates Table 2 twice")
	}
	seq, err := GenTable2(Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := GenTable2(Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("Table 2 differs across worker counts:\n-j 1:\n%s\n-j 8:\n%s", seq, par)
	}
}
