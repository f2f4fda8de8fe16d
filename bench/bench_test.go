package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the harness must agree with.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declaredMetric        `json:"end_to_end"`
	PerLayer  []declaredMetric        `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationsMatch keeps BENCHMARK.json and the harness's own tables
// in step: same workloads, same metrics, same units, directions and bounds.
func TestDeclarationsMatch(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, harness runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, harness %q", i, d.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []declaredMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: declared %d metrics, harness emits %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s %d: declared %+v, harness %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd)
	check("per_layer", d.PerLayer, perLayer)
}

// smokeConfig is a run short enough for tier-1: no timing is asserted.
func smokeConfig(t *testing.T, w workload, agentnode string, traced bool) runConfig {
	cfg := runConfig{
		w: w, seed: 7, traced: traced, setups: 1,
		warmup: 500 * time.Millisecond, window: time.Second,
		workDir: t.TempDir(), agentnode: agentnode, traceDir: t.TempDir(),
	}
	if traced {
		cfg.reference = 300 * time.Millisecond
	}
	return cfg
}

// TestWorkloadsSmoke runs every workload untraced and traced and checks
// what does not depend on speed: the emitted names, correctness, span
// nesting, probe sanity and the repeatability of whole-run counts.
func TestWorkloadsSmoke(t *testing.T) {
	agentnode, err := buildAgentnode(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Compensation transactions per agent, exact on every run.
	wantComps := map[string]float64{"tour-forward": 0, "tour-rollback": tourSteps, "tour-wan": 0, "trip-tcp": tripCompTxns}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			plain, err := runWorkload(smokeConfig(t, w, agentnode, false))
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runWorkload(smokeConfig(t, w, agentnode, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []*runResult{plain, traced} {
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d problems=%v",
						res.Traced, res.Correct, res.Attempted, res.Failed, res.Problems)
				}
				for _, d := range endToEnd {
					if v, ok := res.Metrics[d.name]; !ok || !(v.Value > 0) || v.Unit != d.unit {
						t.Errorf("traced=%v: %s = %+v, want a positive value in %s", res.Traced, d.name, v, d.unit)
					}
				}
			}
			for _, d := range perLayer {
				if v, ok := traced.Metrics[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v, want a finite value in %s", d.name, v, d.unit)
				}
			}
			if len(traced.Metrics) != len(endToEnd)+len(perLayer) || len(plain.Metrics) != len(endToEnd) {
				t.Errorf("emitted %d and %d metrics, want %d and %d",
					len(plain.Metrics), len(traced.Metrics), len(endToEnd), len(endToEnd)+len(perLayer))
			}
			for _, probe := range []string{"node.container_encode_us", "node.container_decode_us", "node.container_bytes", "network.sim_hop_us", "network.tcp_hop_us"} {
				if v := traced.Metrics[probe].Value; !(v > 0) {
					t.Errorf("probe %s = %v, want > 0", probe, v)
				}
			}
			if got := traced.Metrics["node.comp_txns_per_agent"].Value; got != wantComps[w.name] {
				t.Errorf("node.comp_txns_per_agent = %v, want exactly %v", got, wantComps[w.name])
			}
			a, b := plain.Metrics["wire_kb_per_agent"].Value, traced.Metrics["wire_kb_per_agent"].Value
			if math.Abs(a-b) > 0.02*a {
				t.Errorf("wire_kb_per_agent %v vs %v across two runs of one seed: more than 2%% apart", a, b)
			}
			checkSpans(t, traced.TraceFile)
		})
	}
}

// checkSpans reads a trace file back: every span lies inside the root of
// its trace and no self time is negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for trace, byName := range indexSpans(spans) {
		roots := append(byName[spanAgent], byName[spanNode]...)
		if len(roots) != 1 {
			t.Errorf("trace %s: %d roots, want 1", trace, len(roots))
			continue
		}
		root := roots[0]
		var names []string
		for name := range byName {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, s := range byName[name] {
				if s.End < s.Start || s.Start < root.Start || s.End > root.End {
					t.Errorf("trace %s: span %s [%d,%d] outside root [%d,%d]", trace, name, s.Start, s.End, root.Start, root.End)
				}
				if self := selfTime(s, byName); self < 0 {
					t.Errorf("trace %s: span %s has negative self time %d", trace, name, self)
				}
			}
		}
	}
}
