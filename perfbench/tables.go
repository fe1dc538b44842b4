package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/minic/driver"
	"repro/internal/workload"
)

// cell is one (workload, configuration) entry of Tables 1-3.
type cell struct {
	w workload.Workload
	c experiment.Config
}

func (c cell) key() string { return c.w.Name + "/" + c.c.String() }

// configName is the configuration's metric-name form ('+' is not allowed).
func configName(c experiment.Config) string { return strings.ReplaceAll(c.String(), "+", "-") }

// tableGrid lists the cells of Tables 1-3 once each, in table order: Table 1
// (utilities and servers), Table 2's Valgrind column (its other columns are
// Table 1 cells), Table 3 (Olden).
func tableGrid() []cell {
	var cells []cell
	add := func(cat workload.Category, cfgs ...experiment.Config) {
		for _, w := range workload.All() {
			if w.Category != cat {
				continue
			}
			for _, c := range cfgs {
				cells = append(cells, cell{w, c})
			}
		}
	}
	t1 := []experiment.Config{experiment.Native, experiment.LLVMBase, experiment.PA, experiment.PADummy,
		experiment.Ours, experiment.OursStatic, experiment.OursSampled}
	add(workload.Utility, t1...)
	add(workload.Server, t1...)
	add(workload.Utility, experiment.Valgrind)
	add(workload.Olden, experiment.Native, experiment.LLVMBase, experiment.PADummy,
		experiment.Ours, experiment.OursStatic, experiment.OursSampled)
	return cells
}

// entryPoint names the driver.Compile* function a configuration's cells
// compile through.
func entryPoint(c experiment.Config) string {
	switch c {
	case experiment.OursStatic:
		return "CompileStatic"
	case experiment.PA, experiment.PADummy, experiment.Ours, experiment.OursSampled:
		return "CompileWithPools"
	}
	return "Compile"
}

// progKey names the program a cell compiles: its workload through its
// entry point.
func progKey(c cell) string { return c.w.Name + "/" + entryPoint(c.c) }

// compileCell runs the cell's entry point on its workload.
func compileCell(c cell) error {
	var err error
	switch entryPoint(c.c) {
	case "CompileStatic":
		_, _, _, err = driver.CompileStatic(c.w.Source)
	case "CompileWithPools":
		_, _, err = driver.CompileWithPools(c.w.Source)
	default:
		_, err = driver.Compile(c.w.Source)
	}
	return err
}

// simNumbers are a cell's simulated outputs; they must never drift.
type simNumbers struct {
	Cycles      uint64 `json:"cycles"`
	Instrs      uint64 `json:"instrs"`
	MemAccesses uint64 `json:"mem_accesses"`
	Syscalls    uint64 `json:"syscalls"`
	Traps       uint64 `json:"traps"`
	Output      string `json:"output_sha256"`
	Err         string `json:"error,omitempty"`
}

func numbersOf(m experiment.Measurement) simNumbers {
	sum := sha256.Sum256([]byte(m.Output))
	n := simNumbers{
		Cycles: m.Cycles, Instrs: m.Counters.Instrs, MemAccesses: m.Counters.MemAccesses,
		Syscalls: m.Counters.Syscalls, Traps: m.Counters.Traps,
		Output: hex.EncodeToString(sum[:8]),
	}
	if m.Err != nil {
		n.Err = m.Err.Error()
	}
	return n
}

// expectedTablesPath holds every cell's simulated numbers as recorded at
// the benchmark's introduction (regenerate with -record-tables).
const expectedTablesPath = "perfbench/testdata/tables_expected.json"

func loadExpected(path string) (map[string]simNumbers, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var exp map[string]simNumbers
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return exp, nil
}

// recordTables runs every cell once and writes the expected numbers.
func recordTables(path string) error {
	exp := map[string]simNumbers{}
	for _, c := range tableGrid() {
		m, err := experiment.Run(c.w, c.c, experiment.Options{})
		if err != nil {
			return err
		}
		exp[c.key()] = numbersOf(m)
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkCell compares a cell's simulated numbers with the recorded set.
func (r *run) checkCell(c cell, m experiment.Measurement, err error, exp map[string]simNumbers) {
	r.attempted.Add(1)
	if err != nil {
		r.fail("cell %s: %v", c.key(), err)
		return
	}
	want, ok := exp[c.key()]
	if got := numbersOf(m); !ok || got != want {
		r.fail("cell %s: simulated numbers drifted: got %+v, want %+v", c.key(), got, want)
	}
}

// cpuTime returns this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tablesBlocks is how many contiguous blocks of cells an untraced tables
// run cuts the grid into; it sets up again before every block.
const tablesBlocks = 11

// runTables is the tables workload: the cells of Tables 1-3 in table order
// through experiment.Run, nproc at a time. The untraced run cycles over the
// grid block by block until the run's seconds are up, at least once:
// wall_s is one pass on nproc workers, the sum of every cell's median time
// over the run divided by nproc, rps its cells per second, and
// cpu_ms_per_op this process's CPU per cell from per-block medians. Cells
// run nproc at a time, not one at a time, because on a shared 2-vCPU guest
// a lone cell's speed follows what other tenants run beside it: over three
// sets of ten runs, the medians of one-at-a-time passes moved by up to 26%
// between sets, those on both vCPUs by up to 17%. Its inputs are the
// paper's fixed grid, so the seed changes nothing. The traced run makes one
// pass the same way with a span around each cell, and reads the Go
// runtime's allocation and GC counters around it.
func runTables(r *run) error {
	exp, err := loadExpected(expectedTablesPath)
	if err != nil {
		return fmt.Errorf("load expected cell numbers: %w", err)
	}
	grid := tableGrid()

	// Set-up: compile every program the grid runs (each workload through
	// each entry point its cells use). setup_s is the median over rounds.
	var progs []cell
	seen := map[string]bool{}
	for _, c := range grid {
		if k := progKey(c); !seen[k] {
			seen[k] = true
			progs = append(progs, c)
		}
	}
	var setups []float64
	compileNs := map[string][]float64{}
	setUp := func() error {
		start := time.Now()
		for _, c := range progs {
			t := time.Now()
			if err := compileCell(c); err != nil {
				return fmt.Errorf("compile %s: %w", c.key(), err)
			}
			compileNs[progKey(c)] = append(compileNs[progKey(c)], float64(time.Since(t)))
		}
		setups = append(setups, time.Since(start).Seconds())
		return nil
	}

	if r.traced {
		for i := 0; i < setupRepeats; i++ {
			if err := setUp(); err != nil {
				return err
			}
		}
		compile := map[string]float64{}
		for k, ns := range compileNs {
			compile[k] = median(ns)
		}
		return r.tracedTablesPass(grid, exp, compile)
	}

	// The untraced run sets up before every block, the first time before
	// the first cell, so that setup_s samples the same stretch of host time
	// as the other figures (a burst of load from elsewhere on the host
	// would otherwise move a set-up done all at once).
	deadline := time.Now().Add(r.duration())
	n := len(grid)
	size := (n + tablesBlocks - 1) / tablesBlocks
	blocks := (n + size - 1) / size
	cellNs := make([][]float64, n)        // per cell: wall time, nproc running
	blockCPU := make([][]float64, blocks) // per block: this process's CPU
	cycles := 0
	for i := 0; ; i++ {
		b := i % blocks
		if b == 0 && i > 0 {
			cycles++
		}
		if cycles > 0 && !time.Now().Before(deadline) {
			break
		}
		if err := setUp(); err != nil {
			return err
		}
		lo, hi := b*size, min((b+1)*size, n)
		cpu0 := cpuTime()
		r.onWorkers(hi-lo, func(k int) {
			c := grid[lo+k]
			start := time.Now()
			m, err := experiment.Run(c.w, c.c, experiment.Options{})
			cellNs[lo+k] = append(cellNs[lo+k], float64(time.Since(start)))
			r.checkCell(c, m, err, exp)
		})
		blockCPU[b] = append(blockCPU[b], float64(cpuTime()-cpu0))
	}
	wall := sumMedians(cellNs) / float64(r.nproc) / 1e9
	r.set("setup_s", median(setups))
	r.set("wall_s", wall)
	r.set("rps", float64(n)/wall)
	r.set("cpu_ms_per_op", sumMedians(blockCPU)/1e6/float64(n))
	r.set("peak_rss_mb", selfPeakRSSMB())
	r.note("tables: %d cells on %d workers, %d full cycles over the grid", n, r.nproc, cycles)
	return nil
}

// sumMedians adds up the median of every slot's samples.
func sumMedians(samples [][]float64) float64 {
	var s float64
	for _, xs := range samples {
		s += median(xs)
	}
	return s
}

// onWorkers calls fn(0) ... fn(n-1) from nproc goroutines, each taking the
// next index as it finishes one, and returns when all calls have.
func (r *run) onWorkers(n int, fn func(i int)) {
	next := make(chan int, n) // every index queued up front
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// tracedTablesPass is the traced run's single pass: the same
// experiment.Run calls as an untraced run makes, nproc at a time, each in a
// span. experiment.Run compiles its cell's program inside that span, so the
// minic layer is timed in set-up instead: compileNs holds each program's
// median compile time, and a pass pays it once per cell.
func (r *run) tracedTablesPass(grid []cell, exp map[string]simNumbers, compileNs map[string]float64) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pass := r.rec.begin("tables.pass", 0, -1)
	var mu sync.Mutex // guards the sums below
	cfgSecs := map[string]float64{}
	var sim simNumbers
	var cellSum, compileSum, baseNs float64
	var baseInstrs uint64
	r.onWorkers(len(grid), func(i int) {
		c := grid[i]
		cs := r.rec.begin("tables.cell", pass, i)
		rs := r.rec.begin("experiment.run", cs, i)
		m, err := experiment.Run(c.w, c.c, experiment.Options{})
		d := r.rec.end(rs)
		r.rec.end(cs)
		r.checkCell(c, m, err, exp)
		mu.Lock()
		defer mu.Unlock()
		cellSum += float64(d)
		cfgSecs[configName(c.c)] += d.Seconds()
		compileSum += compileNs[progKey(c)]
		sim.Instrs += m.Counters.Instrs
		sim.MemAccesses += m.Counters.MemAccesses
		sim.Syscalls += m.Counters.Syscalls
		sim.Traps += m.Counters.Traps
		if c.c == experiment.LLVMBase {
			// The interpreter's share: the cell less its compile.
			baseNs += float64(d) - compileNs[progKey(c)]
			baseInstrs += m.Counters.Instrs
		}
	})
	r.rec.end(pass)
	r.set("wall_s", cellSum/float64(r.nproc)/1e9)
	runtime.ReadMemStats(&ms1)

	lt := groupSpans(r.rec.closed())
	r.set("minic.compile_ms", compileSum/1e6)
	cells := sortedCopy(lt.dur["experiment.run"])
	r.set("p50_ms", percentile(cells, 50)/1e6)
	r.set("tail_ms", percentile(cells, tailPercentile(len(cells)))/1e6)
	for name, s := range cfgSecs {
		r.set("experiment.cell_s."+name, s)
	}
	if baseInstrs > 0 {
		r.set("interp.ns_per_instr", baseNs/float64(baseInstrs))
	}
	r.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	r.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	r.set("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	r.set("sim.instrs", float64(sim.Instrs))
	r.set("sim.mem_accesses", float64(sim.MemAccesses))
	r.set("sim.syscalls", float64(sim.Syscalls))
	r.set("sim.traps", float64(sim.Traps))
	r.note("tables: cell self time (bench overhead) %.3f ms over %d cells",
		sum(lt.self["tables.cell"])/1e6, len(grid))
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
