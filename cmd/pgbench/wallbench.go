package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/pool"
	"repro/internal/sim/kernel"
	"repro/internal/sim/phys"
	"repro/internal/sim/vm"
)

// Seed wall-clock baselines for full-table regeneration, measured on the
// reference container (single core) from the pre-optimization binary: the
// commit before the radix page table, translation cache, pool free-list
// indexing, and interpreter predecoding landed. The -wallbench report divides
// these by the current timings to state the speedup the fast paths bought.
// Absolute seconds are machine-dependent; the ratio is the claim.
const (
	seedTable1Secs = 23.457
	seedTable2Secs = 3.300
	seedTable3Secs = 1.380
)

// wallBenchDoc is the -wallbench export: host wall-clock timings for the
// table generators plus microbenchmarks of the two optimized hot paths.
// Unlike the simulated-cycle numbers (which are deterministic and
// machine-independent), everything here is a real-time measurement and
// varies run to run; -check-bench therefore validates shape and ordering
// relations, not exact values.
type wallBenchDoc struct {
	Schema  string           `json:"schema"`
	Workers int              `json:"workers"`
	Tables  []wallTableEntry `json:"tables"`
	// TotalSecs/SeedTotalSecs/SpeedupVsSeed summarize full-table
	// regeneration (Tables 1+2+3) against the committed seed baseline.
	TotalSecs     float64          `json:"total_secs"`
	SeedTotalSecs float64          `json:"seed_total_secs"`
	SpeedupVsSeed float64          `json:"speedup_vs_seed"`
	Micro         []wallMicroBench `json:"micro"`
}

type wallTableEntry struct {
	Name          string  `json:"name"`
	Secs          float64 `json:"secs"`
	SeedSecs      float64 `json:"seed_secs"`
	SpeedupVsSeed float64 `json:"speedup_vs_seed"`
}

type wallMicroBench struct {
	Name string  `json:"name"`
	N    uint64  `json:"n"`
	NsOp float64 `json:"ns_per_op"`
}

// runWallBench times the three table generators end to end and the two
// optimized hot paths in isolation, writing the report as JSON to path.
func runWallBench(path string, opts experiment.Options) error {
	doc := wallBenchDoc{
		Schema:  "pgbench-wallclock/v1",
		Workers: opts.Parallelism,
	}

	gens := []struct {
		name string
		seed float64
		gen  func(experiment.Options) error
	}{
		{"table1", seedTable1Secs, func(o experiment.Options) error { _, err := experiment.GenTable1(o); return err }},
		{"table2", seedTable2Secs, func(o experiment.Options) error { _, err := experiment.GenTable2(o); return err }},
		{"table3", seedTable3Secs, func(o experiment.Options) error { _, err := experiment.GenTable3(o); return err }},
	}
	for _, g := range gens {
		fmt.Printf("wallbench: generating %s...\n", g.name)
		start := time.Now()
		if err := g.gen(opts); err != nil {
			return fmt.Errorf("wallbench %s: %w", g.name, err)
		}
		secs := time.Since(start).Seconds()
		doc.Tables = append(doc.Tables, wallTableEntry{
			Name:          g.name,
			Secs:          secs,
			SeedSecs:      g.seed,
			SpeedupVsSeed: g.seed / secs,
		})
		doc.TotalSecs += secs
		doc.SeedTotalSecs += g.seed
	}
	doc.SpeedupVsSeed = doc.SeedTotalSecs / doc.TotalSecs

	for _, mb := range []struct {
		name string
		run  func() (uint64, float64, error)
	}{
		{"translate_radix", benchTranslate},
		{"access_radix", benchAccess},
		{"pool_alloc_free", benchPoolAllocFree},
	} {
		fmt.Printf("wallbench: micro %s...\n", mb.name)
		n, nsop, err := mb.run()
		if err != nil {
			return fmt.Errorf("wallbench %s: %w", mb.name, err)
		}
		doc.Micro = append(doc.Micro, wallMicroBench{Name: mb.name, N: n, NsOp: nsop})
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: tables %.1fs vs seed %.1fs (%.2fx)\n",
		path, doc.TotalSecs, doc.SeedTotalSecs, doc.SpeedupVsSeed)
	return nil
}

// benchTranslate isolates the page-table walk: Lookup over a 64Ki-page
// working set, the operation the radix tree replaced map hashing in.
func benchTranslate() (uint64, float64, error) {
	s := vm.NewSpace()
	const pages = 65536
	vpn, err := s.ReservePages(pages)
	if err != nil {
		return 0, 0, err
	}
	for i := uint64(0); i < pages; i++ {
		s.Map(vpn+vm.VPN(i), phys.FrameID(i%512), vm.ProtRW)
	}
	const iters = 5_000_000
	var sink uint64
	start := time.Now()
	for i := 0; i < iters; i++ {
		f, _, ok := s.Lookup(vpn + vm.VPN(uint64(i*13)%pages))
		if !ok {
			return 0, 0, fmt.Errorf("translate bench: lookup miss")
		}
		sink += uint64(f)
	}
	elapsed := time.Since(start)
	_ = sink
	return iters, float64(elapsed.Nanoseconds()) / float64(iters), nil
}

// benchAccess times simulated word loads through the full MMU path (page
// table + TLB + data cache), striding across enough pages to exercise
// translation.
func benchAccess() (uint64, float64, error) {
	cfg := kernel.DefaultConfig()
	sys := kernel.NewSystem(cfg)
	proc, err := kernel.NewProcess(sys, cfg)
	if err != nil {
		return 0, 0, err
	}
	const pages = 512
	base, err := proc.Mmap(pages * vm.PageSize)
	if err != nil {
		return 0, 0, err
	}
	m := proc.MMU()
	// Touch every page once so the timed loop measures steady-state
	// translation, not first-touch page faults.
	for p := uint64(0); p < pages; p++ {
		if _, err := m.ReadWord(base+vm.Addr(p*vm.PageSize), 8); err != nil {
			return 0, 0, err
		}
	}
	const iters = 2_000_000
	addr := base
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := m.ReadWord(addr, 8); err != nil {
			return 0, 0, err
		}
		// Land every access on a different page than the last (page stride
		// plus a prime word offset) so the one-entry translation cache never
		// hits and each iteration performs a real page-table lookup.
		addr += vm.PageSize + 8*13
		if addr >= base+vm.Addr(pages*vm.PageSize) {
			addr = base + (addr-base)%vm.PageSize
		}
	}
	elapsed := time.Since(start)
	return iters, float64(elapsed.Nanoseconds()) / float64(iters), nil
}

// benchPoolAllocFree times the pool runtime's alloc/free pair, including the
// pooldestroy path that feeds the shared free list TakeRun draws from.
func benchPoolAllocFree() (uint64, float64, error) {
	proc, err := kernel.NewProcess(kernel.NewSystem(kernel.DefaultConfig()), kernel.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	rt := pool.NewRuntime(proc)
	const rounds = 2000
	const objs = 64
	start := time.Now()
	for r := 0; r < rounds; r++ {
		p := rt.Init("bench", 48)
		addrs := make([]vm.Addr, 0, objs)
		for i := 0; i < objs; i++ {
			a, err := p.Alloc(48)
			if err != nil {
				return 0, 0, err
			}
			addrs = append(addrs, a)
		}
		for _, a := range addrs {
			if err := p.Free(a); err != nil {
				return 0, 0, err
			}
		}
		if err := p.Destroy(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	n := uint64(rounds * objs * 2) // one alloc + one free per object
	return n, float64(elapsed.Nanoseconds()) / float64(n), nil
}

// checkWallBench validates a -wallbench output file: schema, completeness,
// positive timings, and, in artifacts made while the map page table still
// existed (BENCH_pr4.json), the radix-vs-map ordering relations.
func checkWallBench(path string, doc *wallBenchDoc) error {
	wantTables := []string{"table1", "table2", "table3"}
	if len(doc.Tables) != len(wantTables) {
		return fmt.Errorf("%s: %d table entries, want %d", path, len(doc.Tables), len(wantTables))
	}
	for i, t := range doc.Tables {
		if t.Name != wantTables[i] {
			return fmt.Errorf("%s: table entry %d is %q, want %q", path, i, t.Name, wantTables[i])
		}
		if t.Secs <= 0 || math.IsInf(t.Secs, 0) || math.IsNaN(t.Secs) {
			return fmt.Errorf("%s: %s secs = %v", path, t.Name, t.Secs)
		}
		if t.SeedSecs <= 0 || t.SpeedupVsSeed <= 0 {
			return fmt.Errorf("%s: %s seed baseline malformed (seed=%v speedup=%v)",
				path, t.Name, t.SeedSecs, t.SpeedupVsSeed)
		}
	}
	if doc.TotalSecs <= 0 || doc.SpeedupVsSeed <= 0 {
		return fmt.Errorf("%s: totals malformed (total=%v speedup=%v)", path, doc.TotalSecs, doc.SpeedupVsSeed)
	}
	micro := map[string]wallMicroBench{}
	for _, m := range doc.Micro {
		if m.N == 0 || m.NsOp <= 0 || math.IsInf(m.NsOp, 0) || math.IsNaN(m.NsOp) {
			return fmt.Errorf("%s: micro %s malformed (n=%d ns_per_op=%v)", path, m.Name, m.N, m.NsOp)
		}
		micro[m.Name] = m
	}
	for _, name := range []string{"translate_radix", "access_radix", "pool_alloc_free"} {
		if _, ok := micro[name]; !ok {
			return fmt.Errorf("%s: missing micro benchmark %s", path, name)
		}
	}
	// Artifacts made while the map page table existed also time it. There
	// the isolated table walk is the gated claim: the radix tree must beat
	// the map hash outright (the margin is several-fold, so this never
	// trips on scheduler noise).
	if l, ok := micro["translate_legacy_map"]; ok {
		if r := micro["translate_radix"]; r.NsOp > l.NsOp {
			return fmt.Errorf("%s: radix translation slower than legacy map (%.1f ns/op vs %.1f ns/op)",
				path, r.NsOp, l.NsOp)
		}
	}
	// The full access path differs by only a few ns between page tables
	// (TLB/cache/meter work dominates and is identical in both), so allow
	// generous headroom for host noise while still catching a real
	// regression such as losing the translation cache.
	if l, ok := micro["access_legacy_map"]; ok {
		if r := micro["access_radix"]; r.NsOp > 1.5*l.NsOp {
			return fmt.Errorf("%s: radix access path regressed vs legacy map (%.1f ns/op vs %.1f ns/op)",
				path, r.NsOp, l.NsOp)
		}
	}
	fmt.Printf("%s: ok (tables %.1fs, %.2fx vs seed, %d micro benchmarks)\n",
		path, doc.TotalSecs, doc.SpeedupVsSeed, len(doc.Micro))
	return nil
}
