package main

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/stable"
)

// smallLoad is a tiny two-node load at 2 workers per node.
var smallLoad = []string{
	"-nodes", "2", "-agents", "6", "-steps", "2", "-banks", "2",
	"-stepwork", "1ms", "-workers", "2",
}

func runArgs(t *testing.T, args ...string) *chaos.Result {
	t.Helper()
	res, err := run(args)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLoadgenSmoke runs one tiny plain load through the flags and checks
// the result behind the summary lines.
func TestLoadgenSmoke(t *testing.T) {
	res := runArgs(t, smallLoad...)
	if res.Completed != 6 || len(res.Schedule.Events) != 0 {
		t.Errorf("plain load: %d of 6 agents completed, %d schedule events", res.Completed, len(res.Schedule.Events))
	}
	if res.RolledBack == 0 {
		t.Error("plain load rolled no agent back")
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("implausible percentiles p50=%v p99=%v", res.P50, res.P99)
	}
	if res.GoroutinePeak <= 0 || len(res.Trace) == 0 {
		t.Errorf("goroutine peak %d, %d trace records", res.GoroutinePeak, len(res.Trace))
	}
}

func TestLoadgenBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-store", "papyrus"},
		{"-chaos", "-store", "papyrus"},
		// Replication is gone: its flags are refused by name.
		{"-repl", "2"},
		{"-chaos-kill", "1"},
		// The seed draws the schedule: a join or a profile would replace it.
		{"-chaos", "-join"},
		{"-chaos-seed", "1", "-profile", "shard-saturate"},
		{"-profile", "flat-out"},
	} {
		if _, err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestLoadgenChaosReplay replays one chaos seed through the CLI — the path
// a failing seed's repro line takes — and checks it draws the schedule
// the chaos test sweep draws for the same seed and worker count.
func TestLoadgenChaosReplay(t *testing.T) {
	res := runArgs(t, "-chaos", "-chaos-seed", "1", "-workers", "2")
	if res.Seed != 1 || res.Failed() {
		t.Fatalf("seed %d: violations %v", res.Seed, res.Violations)
	}
	crashes, partitions, faults := res.Schedule.Counts()
	if crashes+partitions+faults == 0 {
		t.Error("schedule contained no fault windows at all")
	}
	want, err := chaos.Run(chaos.Options{Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Schedule, want.Schedule) {
		t.Errorf("loadgen drew\n%s\nthe chaos test draws\n%s", res.Schedule.String(), want.Schedule.String())
	}
}

// TestLoadgenStoreBackends drives a tiny run against each storage engine
// and checks every backend actually hit stable storage.
func TestLoadgenStoreBackends(t *testing.T) {
	for _, engine := range stable.Engines() {
		res := runArgs(t, append(smallLoad, "-store", engine)...)
		if res.Metrics.StableWrites <= 0 {
			t.Errorf("store=%s: no stable writes recorded", engine)
		}
	}
}

// TestLoadgenStorageFlags: the storage flags reach the harness whole, so
// a WAL engine tuned to tiny segments rotates them.
func TestLoadgenStorageFlags(t *testing.T) {
	res := runArgs(t, append(smallLoad, "-store", "wal", "-wal-segment", "4096")...)
	if res.Metrics.WALRotations == 0 {
		t.Error("-wal-segment 4096 rotated no segment")
	}
}
