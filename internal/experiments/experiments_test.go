package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestPipelineForward: the generic workload completes a forward run and
// the money invariant holds (checked inside RunPipeline).
func TestPipelineForward(t *testing.T) {
	res, err := RunPipeline(PipelineConfig{Nodes: 2, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("failed: %s", res.Reason)
	}
	if res.Metrics.StepTxns != 4 { // 3 work + decide
		t.Errorf("step txns = %d, want 4", res.Metrics.StepTxns)
	}
	if res.Metrics.CompTxns != 0 {
		t.Errorf("comp txns = %d, want 0 in a forward run", res.Metrics.CompTxns)
	}
}

// TestPipelineRollbackCounts: a full rollback compensates every step
// exactly once.
func TestPipelineRollbackCounts(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		res, err := RunPipeline(PipelineConfig{
			Nodes: 3, Steps: 4, Rollback: true, Optimized: optimized,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Fatalf("optimized=%v failed: %s", optimized, res.Reason)
		}
		if res.Metrics.CompTxns != 4 {
			t.Errorf("optimized=%v: comp txns = %d, want 4", optimized, res.Metrics.CompTxns)
		}
		var ok bool
		if err := res.Agent.SRO.MustGet("ok", &ok); err != nil || !ok {
			t.Errorf("optimized=%v: ok = %v, %v", optimized, ok, err)
		}
	}
}

// TestPipelineOptimizedSavesTransfers is the Figure-5 claim in miniature.
func TestPipelineOptimizedSavesTransfers(t *testing.T) {
	basic, err := RunPipeline(PipelineConfig{Nodes: 3, Steps: 6, Rollback: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := RunPipeline(PipelineConfig{Nodes: 3, Steps: 6, Rollback: true, Optimized: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Metrics.AgentTransfers >= basic.Metrics.AgentTransfers {
		t.Errorf("optimized transfers %d >= basic %d",
			opt.Metrics.AgentTransfers, basic.Metrics.AgentTransfers)
	}
	if opt.Metrics.RemoteCompBatches == 0 {
		t.Error("optimized run shipped no RCE batches")
	}
}

// TestPipelineAllMixedEqualsBasic: at mixed fraction 1 both algorithms
// produce identical transfer counts (the F5 convergence point).
func TestPipelineAllMixedEqualsBasic(t *testing.T) {
	mixed := MixedFlags(4, 1)
	basic, err := RunPipeline(PipelineConfig{Nodes: 3, Steps: 4, Mixed: mixed, Rollback: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := RunPipeline(PipelineConfig{Nodes: 3, Steps: 4, Mixed: mixed, Rollback: true, Optimized: true})
	if err != nil {
		t.Fatal(err)
	}
	if basic.Metrics.AgentTransfers != opt.Metrics.AgentTransfers {
		t.Errorf("transfers differ at mixed=1: basic %d, optimized %d",
			basic.Metrics.AgentTransfers, opt.Metrics.AgentTransfers)
	}
	if opt.Metrics.RemoteCompBatches != 0 {
		t.Errorf("RCE batches = %d at mixed=1, want 0", opt.Metrics.RemoteCompBatches)
	}
}

// TestPipelineTopLevelGroupsDiscardLog: grouped top-level sub-itineraries
// bound the peak log size.
func TestPipelineTopLevelGroupsDiscardLog(t *testing.T) {
	flat, err := RunPipeline(PipelineConfig{
		Nodes: 2, Steps: 8, PayloadBytes: 256, SavepointEveryStep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := RunPipeline(PipelineConfig{
		Nodes: 2, Steps: 8, PayloadBytes: 256, TopLevelGroup: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if grouped.Metrics.LogBytesPeak >= flat.Metrics.LogBytesPeak {
		t.Errorf("grouped peak %d >= flat peak %d",
			grouped.Metrics.LogBytesPeak, flat.Metrics.LogBytesPeak)
	}
}

func TestMixedFlags(t *testing.T) {
	if got := MixedFlags(8, 0); countTrue(got) != 0 {
		t.Errorf("fraction 0: %v", got)
	}
	if got := MixedFlags(8, 1); countTrue(got) != 8 {
		t.Errorf("fraction 1: %v", got)
	}
	if got := MixedFlags(8, 0.5); countTrue(got) != 4 {
		t.Errorf("fraction 0.5: %v (want 4 set)", got)
	}
	if got := MixedFlags(8, 2); countTrue(got) != 8 {
		t.Errorf("fraction >1 clamps: %v", got)
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col", "value"},
	}
	tbl.AddRow("x", 1.5)
	tbl.AddRow("longer-cell", 10)
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a note", "col", "longer-cell", "1.50", "10"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSmallFigures runs the cheap, deterministic experiment runners.
func TestSmallFigures(t *testing.T) {
	if _, err := Fig2(); err != nil {
		t.Errorf("Fig2: %v", err)
	}
	if _, err := TLog(); err != nil {
		t.Errorf("TLog: %v", err)
	}
	if _, err := TPerf(); err != nil {
		t.Errorf("TPerf: %v", err)
	}
}

func TestList(t *testing.T) {
	want := []string{"f1", "f2", "f3", "f4", "f5", "f6", "tlog", "tft", "tperf", "chaos"}
	got := List()
	if len(got) != len(want) {
		t.Fatalf("List has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Name != want[i] || e.Run == nil || e.Desc == "" {
			t.Errorf("List[%d] = %q (run nil: %v, desc %q), want %q", i, e.Name, e.Run == nil, e.Desc, want[i])
		}
	}
}

// TestChaosExperiment: the chaos table runs its sweep with every row
// passing (any violation lands in the verdict column).
func TestChaosExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine chaos sweep")
	}
	tbl, err := Chaos()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(chaosPoints) {
		t.Fatalf("chaos table has %d rows, want %d", len(tbl.Rows), len(chaosPoints))
	}
	verdict := len(tbl.Header) - 1
	for _, row := range tbl.Rows {
		if row[verdict] != "OK" {
			t.Errorf("seed %s (%s/%s): verdict %q", row[0], row[1], row[2], row[verdict])
		}
	}
}

// TestTransitionLoggingPipeline: the pipeline under transition logging
// still restores correctly after a rollback.
func TestTransitionLoggingPipeline(t *testing.T) {
	res, err := RunPipeline(PipelineConfig{
		Nodes: 2, Steps: 3, PayloadBytes: 128,
		LogMode: core.TransitionLogging, Rollback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("failed: %s", res.Reason)
	}
}
