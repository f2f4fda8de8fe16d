package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/stable"
)

// smallLoad is a tiny two-node load at 2 workers per node.
var smallLoad = experiments.ThroughputConfig{
	Nodes: 2, Workers: 2, Agents: 6, Steps: 2, Banks: 2,
	StepWork: time.Millisecond, Store: "mem",
}

// TestLoadgenSmoke runs one tiny plain load through the flags, then once
// more through runLoad to check the result behind the summary line.
func TestLoadgenSmoke(t *testing.T) {
	err := run([]string{
		"-nodes", "2", "-agents", "6", "-steps", "2", "-banks", "2",
		"-stepwork", "1ms", "-latency", "0", "-workers", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLoad(smallLoad, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.AgentsPerSec <= 0 || res.StepsPerSec <= 0 {
		t.Errorf("non-positive throughput %+v", res)
	}
	if res.P99 < res.P50 {
		t.Errorf("p99 %v < p50 %v", res.P99, res.P50)
	}
}

func TestLoadgenBadFlags(t *testing.T) {
	if err := run([]string{"-store", "papyrus"}); err == nil {
		t.Error("unknown store backend accepted")
	}
	if err := run([]string{"-chaos", "-store", "papyrus"}); err == nil {
		t.Error("chaos mode accepted an unknown store backend")
	}
	// A flag only the other mode reads is rejected, not silently dropped.
	if err := run([]string{"-chaos", "-agents", "100"}); err == nil {
		t.Error("chaos mode accepted a plain-load flag")
	}
	if err := run([]string{"-chaos-seed", "1"}); err == nil {
		t.Error("plain load accepted a -chaos-* flag")
	}
	if err := run([]string{"-json", filepath.Join(t.TempDir(), "r.json")}); err == nil {
		t.Error("plain load accepted -json")
	}
}

// TestLoadgenChaosReplay replays one chaos seed through the CLI and
// checks the JSON report shape — the path CI's repro command takes.
func TestLoadgenChaosReplay(t *testing.T) {
	out := filepath.Join(t.TempDir(), "chaos.json")
	err := run([]string{
		"-chaos", "-chaos-seed", "1", "-nodes", "3", "-workers", "2",
		"-json", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var reports []chaosReport
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d chaos reports, want 1", len(reports))
	}
	r := reports[0]
	if r.Seed != 1 || r.Workers != 2 || r.Store != "mem" {
		t.Errorf("report header wrong: %+v", r)
	}
	if len(r.Violations) != 0 {
		t.Errorf("seed 1 violated invariants: %v", r.Violations)
	}
	if r.Crashes+r.Partitions+r.FaultWins == 0 {
		t.Error("schedule contained no fault windows at all")
	}
}

// TestLoadgenStoreBackends drives a tiny run against each storage engine
// and checks every backend actually hit stable storage.
func TestLoadgenStoreBackends(t *testing.T) {
	for _, engine := range stable.Engines() {
		cfg := smallLoad
		cfg.Store = engine
		res, err := runLoad(cfg, "")
		if err != nil {
			t.Fatalf("store=%s: %v", engine, err)
		}
		if res.AgentsPerSec <= 0 {
			t.Errorf("store=%s: non-positive throughput", engine)
		}
		if res.Metrics.StableWrites <= 0 {
			t.Errorf("store=%s: no stable writes recorded", engine)
		}
	}
}
