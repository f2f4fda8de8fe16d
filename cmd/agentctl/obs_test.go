package main

import (
	"bytes"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// startObs serves a populated admin plane on a free port (the same
// reserve-then-listen rig the launch tests use) and returns its base URL.
func startObs(t *testing.T) string {
	t.Helper()
	c := &metrics.Counters{}
	c.IncMessages(64)
	c.AddStepTxns(1)
	c.AddWireBytes("q.prepare", 128)
	var ts int64
	tr := trace.New("A", 64, func() int64 { ts += 1000; return ts })
	tr.Rec(trace.OpAgentStep, "A#1", "trip1", "buy", "", "", 1)
	tr.Rec(trace.OpTransition, "A#1", "", "AckReceived(commit)", "coord-active", "coord-idle", 2)
	tr.Rec(trace.OpTransition, "A#2", "", "PrepareReceived", "-", "staged", 1)
	m := membership.NewManager("A",
		membership.Member{Name: "B", Status: membership.Alive, Epoch: 1})
	h := obs.Handler(obs.Config{
		Node: "A", Counters: c, Tracer: tr,
		Membership: m, Adopted: func() int { return 2 },
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return "http://" + l.Addr().String()
}

func TestMetricsSubcommand(t *testing.T) {
	base := startObs(t)
	var out bytes.Buffer
	if err := runMetrics([]string{"-obs", base}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"repro_messages_total", "repro_step_txns_total",
		`repro_wire_msgs_by_kind_total{kind="q.prepare"}`} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// Zero-valued series are hidden by default…
	if strings.Contains(got, "repro_comp_txns_total") {
		t.Errorf("zero metric shown without -all:\n%s", got)
	}
	// …and shown with -all.
	out.Reset()
	if err := runMetrics([]string{"-obs", base, "-all"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "repro_comp_txns_total") {
		t.Error("-all did not include zero metrics")
	}
	// -filter narrows by substring.
	out.Reset()
	if err := runMetrics([]string{"-obs", base, "-filter", "wire_msgs"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "wire_msgs") || strings.Contains(got, "repro_messages_total") {
		t.Errorf("filter output:\n%s", got)
	}
}

func TestTraceSubcommand(t *testing.T) {
	base := startObs(t)
	var out bytes.Buffer
	if err := runTrace([]string{"-obs", base}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "3 records from node(s) A") {
		t.Errorf("header missing:\n%s", got)
	}
	if !strings.Contains(got, "edge=coord-active→coord-idle") {
		t.Errorf("transition edge missing:\n%s", got)
	}
	// Agent filter joins the txn-only transition through OpAgentStep.
	out.Reset()
	if err := runTrace([]string{"-obs", base, "-agent", "trip1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 records") {
		t.Errorf("agent filter:\n%s", out.String())
	}
	out.Reset()
	if err := runTrace([]string{"-obs", base, "-txn", "A#2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 records") {
		t.Errorf("txn filter:\n%s", out.String())
	}
	out.Reset()
	if err := runTrace([]string{"-obs", base, "-last", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 records") {
		t.Errorf("last filter:\n%s", out.String())
	}
	out.Reset()
	if err := runTrace([]string{"-obs", base, "-txn", "nope"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no trace records matched") {
		t.Errorf("empty result:\n%s", out.String())
	}
}

func TestRingSubcommand(t *testing.T) {
	base := startObs(t)
	var out bytes.Buffer
	if err := runRing([]string{"-obs", base}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"node A: 2 members, 128 vnodes/member",
		"adopted=2",
		"MEMBER", // table header
		"alive",
		"%", // rendered shares
	} {
		if !strings.Contains(got, want) {
			t.Errorf("ring output missing %q:\n%s", want, got)
		}
	}
	if err := runRing([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown ring flag accepted")
	}
}

// The subcommands must fail fast against a dead endpoint, honouring the
// scrape timeout rather than hanging.
func TestObsSubcommandsFailFast(t *testing.T) {
	dead := "http://" + freeAddr(t)
	start := time.Now()
	var out bytes.Buffer
	if err := runMetrics([]string{"-obs", dead, "-timeout", "500ms"}, &out); err == nil {
		t.Error("metrics against dead endpoint succeeded")
	}
	if err := runTrace([]string{"-obs", dead, "-timeout", "500ms"}, &out); err == nil {
		t.Error("trace against dead endpoint succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Errorf("dead-endpoint scrape took %v", time.Since(start))
	}
	if err := runMetrics([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown metrics flag accepted")
	}
	if err := runTrace([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown trace flag accepted")
	}
}

// Subcommand dispatch must not shadow the launch flow's flag errors.
func TestSubcommandDispatch(t *testing.T) {
	if err := run([]string{"metrics", "-no-such-flag"}); err == nil {
		t.Error("metrics subcommand swallowed a flag error")
	}
	if err := run([]string{"trace", "-no-such-flag"}); err == nil {
		t.Error("trace subcommand swallowed a flag error")
	}
	if err := run([]string{"ring", "-no-such-flag"}); err == nil {
		t.Error("ring subcommand swallowed a flag error")
	}
}
