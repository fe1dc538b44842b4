// Command perfbench is the repository's benchmark. It measures the host
// cost of the two things users run — regenerating the paper's tables and
// serving trace replays through pgserved — end to end, and, in a separate
// traced run, layer by layer. Simulated numbers are outputs it checks, never
// the thing it times.
//
// Run it through perfbench/run.sh from the repository root, which builds
// pgserved and this command from source first:
//
//	bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 60 --trace 0
//
// Workloads are tables, serve-miss and serve-hot (see README.md). The last
// line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; with --trace 0 the metrics are the end-to-end set,
// with --trace 1 the per-layer set. The line before it records the
// environment. Results and span files are also written under -out.
//
// The exit status is 0 when every output checked out, 1 when any operation
// failed (the result line is still printed) and 2 when the benchmark could
// not run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// setupRepeats is how many times a serving run, or a traced tables run,
	// sets up (an untraced tables run sets up before every block); setup_s
	// is the median.
	setupRepeats = 21
	// loadShare is the part of a serving run's measured seconds spent under
	// load (the sequential passes are sized by request count). An untraced
	// run spends it all in the closed loop; a traced run splits it evenly
	// with the open loop, whose figures are per-layer metrics.
	loadShare = 0.6
	// maxFailureLines caps the failure messages kept and printed.
	maxFailureLines = 20
)

// workloads maps a workload name to its body.
var workloads = map[string]func(*run) error{
	"tables":     runTables,
	"serve-miss": runServe(missMix),
	"serve-hot":  runServe(hotMix),
}

// run is one benchmark run: its settings, the values it measured and the
// operations it attempted and failed.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	nproc    int
	pgserved string
	rec      *recorder // nil unless traced

	attempted, failed atomic.Int64

	mu       sync.Mutex
	vals     map[string]float64
	notes    []string
	failures []string
	exits    []func()
}

func (r *run) duration() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vals[name] = v
}

// note adds a human-readable line to the output.
func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < maxFailureLines {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// onExit registers clean-up that must run even when the watchdog or a
// signal ends the run (stopping child processes).
func (r *run) onExit(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.exits = append(r.exits, fn)
}

func (r *run) cleanup() {
	r.mu.Lock()
	fns := r.exits
	r.exits = nil
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: tables, serve-miss or serve-hot")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 60, "seconds the run measures for")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	pgserved := flag.String("pgserved", "", "pgserved binary (serving workloads)")
	out := flag.String("out", ".bench_build/perfbench", "directory for results and span files")
	record := flag.String("record-tables", "", "run every table cell once, write its simulated numbers to this path and exit")
	spread := flag.String("spread", "", "run the benchmark once per seed of this list (e.g. 1-10) and report each metric's median and quartile spread")
	heldout := flag.Int64("heldout", 0, "with -spread: also run this seed as often and compare its medians with the list's")
	flag.Parse()

	switch {
	case *record != "":
		if err := recordTables(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	case *spread != "":
		pass := []string{"-pgserved", *pgserved, "-out", *out}
		if err := runSpread(pass, *workload, *spread, *heldout, *seconds, *traced == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	body, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *traced == 1,
		nproc: runtime.NumCPU(), pgserved: *pgserved, vals: map[string]float64{},
	}
	if r.traced {
		r.rec = newRecorder()
	}
	os.Exit(r.execute(body, *out))
}

// watchdog bounds a run's total time; past it the run stops its child
// processes and exits 2. A run spends its measured seconds plus at most
// about half a minute of set-up, warm-up and fixed-size passes, so this
// leaves room on top of both and still ends a 60 s run within 170 s.
func watchdog(seconds float64) time.Duration {
	return 50*time.Second + time.Duration(2*seconds*float64(time.Second))
}

// execute runs the workload under a watchdog and prints the result; it
// returns the exit status.
func (r *run) execute(body func(*run) error, outDir string) int {
	abort := func(why string) {
		// Stop child processes first: with its reader gone, writing to
		// stderr can end this process.
		r.cleanup()
		fmt.Fprintln(os.Stderr, "perfbench:", why)
		os.Exit(2)
	}
	limit := watchdog(r.seconds)
	timer := time.AfterFunc(limit, func() { abort(fmt.Sprintf("run exceeded %v", limit)) })
	defer timer.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		if s, ok := <-sig; ok {
			abort("stopped by " + s.String())
		}
	}()
	defer signal.Stop(sig)

	err := body(r)
	r.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if r.attempted.Load() == 0 {
			return 2
		}
		r.fail("%v", err)
	}

	res := result{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]metricValue{}}
	if res.Attempted > 0 {
		r.set("fail_share", float64(res.Failed)/float64(res.Attempted))
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
		// Tracing overhead is this minus wall_s of an untraced run of the
		// same seed.
		r.set("bench.traced_wall_s", r.vals["wall_s"])
		r.noteTracingOverhead(outDir)
	}
	for _, d := range defs {
		v := r.vals[d.name]
		if !r.traced && !(v > 0) {
			r.fail("metric %s was not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Failed = r.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0

	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	env := environment()
	if err := r.save(outDir, env, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: save results:", err)
	}
	envLine, _ := json.Marshal(map[string]any{"env": env}) // strings and numbers always marshal
	fmt.Println(string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// save writes the full result (environment, notes, failures) and, for a
// traced run, the spans as NDJSON under dir.
func (r *run) save(dir string, env map[string]any, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := r.resultStem(dir, r.traced)
	doc, err := json.MarshalIndent(map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds,
		"env": env, "notes": r.notes, "failures": r.failures, "result": res,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(doc, '\n'), 0o644); err != nil {
		return err
	}
	if r.traced {
		return writeSpans(stem+".spans.ndjson", r.rec.closed())
	}
	return nil
}

// resultStem is the path, without extension, a run of this workload and
// seed saves its files under.
func (r *run) resultStem(dir string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, t))
}

// noteTracingOverhead compares a traced run's wall_s with the untraced run
// of the same seed, when that run's result is in dir.
func (r *run) noteTracingOverhead(dir string) {
	data, err := os.ReadFile(r.resultStem(dir, false) + ".json")
	if err != nil {
		return
	}
	var doc struct {
		Result result `json:"result"`
	}
	if json.Unmarshal(data, &doc) != nil {
		return
	}
	if untraced := doc.Result.Metrics["wall_s"].Value; untraced > 0 {
		traced := r.vals["wall_s"]
		r.note("%s: tracing overhead: wall_s %.4g s traced vs %.4g s untraced at seed %d (%+.1f%%)",
			r.workload, traced, untraced, r.seed, 100*(traced-untraced)/untraced)
	}
}

// environment records what the figures were measured on.
func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	if k, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(k))
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
