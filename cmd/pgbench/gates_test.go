package main

import (
	"encoding/json"
	"os"
	"testing"
)

func readArtifact(t *testing.T, name string, doc any) {
	t.Helper()
	data, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, doc); err != nil {
		t.Fatal(err)
	}
}

// TestCheckServeBenchWarmSideOptional: new -servebench artifacts have no
// warm (snapshot-fork) side; the committed BENCH_pr9.json has one, and it
// is still validated. A cache no faster than fresh replay is rejected.
func TestCheckServeBenchWarmSideOptional(t *testing.T) {
	var doc serveBenchDoc
	readArtifact(t, "BENCH_pr9.json", &doc)
	if doc.Warm == nil {
		t.Fatal("BENCH_pr9.json has no warm side")
	}
	if err := checkServeBench("BENCH_pr9.json", &doc); err != nil {
		t.Fatal(err)
	}
	bad := doc
	bad.SpeedupWarm *= 2
	if err := checkServeBench("bad", &bad); err == nil {
		t.Error("warm speedup inconsistent with its throughput accepted")
	}
	noWarm := doc
	noWarm.Warm, noWarm.SpeedupWarm = nil, 0
	if err := checkServeBench("no-warm", &noWarm); err != nil {
		t.Errorf("artifact without a warm side rejected: %v", err)
	}
	slow := noWarm
	slow.WarmCached.Requests, slow.WarmCached.Secs, slow.WarmCached.Reqps =
		doc.Fresh.Requests, doc.Fresh.Secs, doc.Fresh.Reqps
	slow.SpeedupWarmCached = 1
	if err := checkServeBench("slow", &slow); err == nil {
		t.Error("a cache no faster than fresh replay accepted")
	}
}

// TestCheckWallBenchMapEntriesOptional: new -wallbench artifacts time only
// the radix page table; the committed BENCH_pr4.json also times the map
// table, and its radix-vs-map relations are still checked.
func TestCheckWallBenchMapEntriesOptional(t *testing.T) {
	var doc wallBenchDoc
	readArtifact(t, "BENCH_pr4.json", &doc)
	if err := checkWallBench("BENCH_pr4.json", &doc); err != nil {
		t.Fatal(err)
	}
	var radixOnly, slowRadix []wallMicroBench
	for _, m := range doc.Micro {
		if m.Name != "translate_legacy_map" && m.Name != "access_legacy_map" {
			radixOnly = append(radixOnly, m)
		}
		if m.Name == "translate_radix" {
			m.NsOp = 1e6
		}
		slowRadix = append(slowRadix, m)
	}
	bad := doc
	bad.Micro = slowRadix
	if err := checkWallBench("bad", &bad); err == nil {
		t.Error("radix translation slower than the map accepted")
	}
	noMap := doc
	noMap.Micro = radixOnly
	if err := checkWallBench("no-map", &noMap); err != nil {
		t.Errorf("artifact without map timings rejected: %v", err)
	}
}
