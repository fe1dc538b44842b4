package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// parseSeeds reads a seed list: "1-10" (a range), "3,7,9" (a list) or
// "1x5" (seed 1 five times); the forms combine with commas.
func parseSeeds(spec string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(spec, ",") {
		if a, b, ok := strings.Cut(part, "-"); ok {
			lo, err1 := strconv.ParseInt(a, 10, 64)
			hi, err2 := strconv.ParseInt(b, 10, 64)
			if err1 != nil || err2 != nil || hi < lo {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
			for s := lo; s <= hi; s++ {
				out = append(out, s)
			}
			continue
		}
		if a, b, ok := strings.Cut(part, "x"); ok {
			s, err1 := strconv.ParseInt(a, 10, 64)
			n, err2 := strconv.Atoi(b)
			if err1 != nil || err2 != nil || n < 1 {
				return nil, fmt.Errorf("bad seed repeat %q", part)
			}
			for i := 0; i < n; i++ {
				out = append(out, s)
			}
			continue
		}
		s, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		out = append(out, s)
	}
	return out, nil
}

// bounds reads each end-to-end metric's bound from BENCHMARK.json in the
// working directory (none if it cannot be read).
func bounds() map[string]float64 {
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := map[string]float64{}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil || json.Unmarshal(data, &doc) != nil {
		return out
	}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// runOnce runs the benchmark as a child process and returns its result line.
func runOnce(base []string, seed int64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, append(base, "-seed", strconv.FormatInt(seed, 10))...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		return res, fmt.Errorf("seed %d: no result line (%v)", seed, err)
	}
	if err != nil || !res.Correct {
		return res, fmt.Errorf("seed %d: run failed (%v, %d of %d operations failed)", seed, err, res.Failed, res.Attempted)
	}
	return res, nil
}

// collect runs every seed and gathers each metric's values.
func collect(base []string, seeds []int64) (map[string][]float64, error) {
	vals := map[string][]float64{}
	for _, s := range seeds {
		res, err := runOnce(base, s)
		if err != nil {
			return nil, err
		}
		var parts []string
		for _, k := range sortedKeys(res.Metrics) {
			vals[k] = append(vals[k], res.Metrics[k].Value)
			parts = append(parts, fmt.Sprintf("%s=%.6g", k, res.Metrics[k].Value))
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", s, strings.Join(parts, " "))
	}
	return vals, nil
}

// runSpread runs the benchmark once per seed of seedSpec and prints, per
// metric, the median and the quartile spread as a share of it next to the
// metric's bound. With heldout, that seed is run as many times and its
// medians are compared with the list's.
func runSpread(pass []string, workload, seedSpec string, heldout int64, seconds float64, traced bool) error {
	seeds, err := parseSeeds(seedSpec)
	if err != nil {
		return err
	}
	base := append(append([]string(nil), pass...), "-workload", workload,
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", map[bool]string{false: "0", true: "1"}[traced])
	vals, err := collect(base, seeds)
	if err != nil {
		return err
	}
	var held map[string][]float64
	if heldout != 0 {
		reps := make([]int64, len(seeds))
		for i := range reps {
			reps[i] = heldout
		}
		if held, err = collect(base, reps); err != nil {
			return err
		}
	}
	bd := bounds()
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%s, seeds %s, %g s per run\n", workload, seedSpec, seconds)
	fmt.Fprintf(w, "%-28s %12s %12s %12s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, k := range sortedKeys(vals) {
		q := quartiles(vals[k])
		sp := spreadShare(vals[k])
		b, hasBound := bd[k]
		verdict := ""
		switch {
		case !hasBound || traced:
		case k == "setup_s":
			verdict = "(set-up: spread not bounded)"
		case sp < b/3:
			verdict = "steady (< bound/3)"
		case sp <= b:
			verdict = "within bound, not below bound/3"
		default:
			verdict = "SPREAD EXCEEDS BOUND"
		}
		if held != nil {
			hm := quartiles(held[k])[1]
			d := (hm - q[1]) / math.Abs(q[1])
			verdict += fmt.Sprintf("; held-out seed %d median %.6g (%+.1f%%)", heldout, hm, 100*d)
			if hasBound && math.Abs(d) > b {
				verdict += " OUTSIDE BOUND"
			}
		}
		bs := "-"
		if hasBound {
			bs = strconv.FormatFloat(b, 'f', -1, 64)
		}
		fmt.Fprintf(w, "%-28s %12.6g %12.6g %12.6g %7.1f%% %6s  %s\n", k, q[0], q[1], q[2], 100*sp, bs, verdict)
	}
	return w.Flush()
}
