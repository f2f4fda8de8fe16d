package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/stable"
	"repro/internal/trace"
)

func testHandler(healthy bool) (http.Handler, *metrics.Counters, *trace.Tracer) {
	c := &metrics.Counters{}
	c.IncMessages(42)
	c.AddWireBytes("q.prepare", 100)
	var t0 int64
	tr := trace.New("n1", 64, func() int64 { t0 += 10; return t0 })
	tr.Rec(trace.OpAgentStep, "txn-1", "agent-1", "work", "", "", 1)
	tr.Rec(trace.OpTransition, "txn-1", "", "AckReceived", "coord-active", "coord-idle", 2)
	tr.Rec(trace.OpTransition, "txn-2", "", "PrepareReceived", "-", "staged", 1)
	h := Handler(Config{
		Node:     "n1",
		Counters: c,
		Tracer:   tr,
		Healthy:  func() bool { return healthy },
	})
	return h, c, tr
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestMetricsEndpoint(t *testing.T) {
	h, _, _ := testHandler(true)
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"repro_messages_total 1",
		"repro_bytes_sent_total 42",
		`repro_wire_bytes_by_kind_total{kind="q.prepare"} 100`,
		`repro_wire_msgs_by_kind_total{kind="q.prepare"} 1`,
		"# TYPE repro_step_latency_seconds summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A nil Counters is "off": same endpoint, the all-zero exposition.
	off := get(t, Handler(Config{Node: "n1"}), "/metrics")
	if off.Code != http.StatusOK || off.Header().Get("Content-Type") != rec.Header().Get("Content-Type") {
		t.Errorf("nil counters: status = %d, content type = %q", off.Code, off.Header().Get("Content-Type"))
	}
	var zero strings.Builder
	if err := metrics.WritePrometheus(&zero, metrics.Snapshot{}, metrics.LatencySummary{}); err != nil {
		t.Fatal(err)
	}
	if off.Body.String() != zero.String() {
		t.Errorf("nil counters: body is not the all-zero exposition:\n%s", off.Body.String())
	}
}

func TestHealthz(t *testing.T) {
	h, _, _ := testHandler(true)
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok n1") {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}
	h, _, _ = testHandler(false)
	rec = get(t, h, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("unhealthy status = %d", rec.Code)
	}
}

func TestTraceEndpointFilters(t *testing.T) {
	h, _, _ := testHandler(true)

	decode := func(rec *httptest.ResponseRecorder) []trace.Record {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		rs, err := trace.DecodeJSON(rec.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	if rs := decode(get(t, h, "/trace")); len(rs) != 3 {
		t.Errorf("unfiltered records = %d, want 3", len(rs))
	}
	if rs := decode(get(t, h, "/trace?txn=txn-2")); len(rs) != 1 || rs[0].Txn != "txn-2" {
		t.Errorf("txn filter = %+v", rs)
	}
	// agent filter joins txn-only records through the OpAgentStep record.
	if rs := decode(get(t, h, "/trace?agent=agent-1")); len(rs) != 2 {
		t.Errorf("agent filter records = %d, want 2", len(rs))
	}
	if rs := decode(get(t, h, "/trace?last=1")); len(rs) != 1 {
		t.Errorf("last=1 records = %d", len(rs))
	}
	if rec := get(t, h, "/trace?last=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad last status = %d", rec.Code)
	}
	// The body must be a plain JSON array (Chrome-trace export lives on
	// the loadgen side; the endpoint serves raw records).
	var arr []json.RawMessage
	if err := json.Unmarshal(get(t, h, "/trace").Body.Bytes(), &arr); err != nil {
		t.Fatalf("trace body is not a JSON array: %v", err)
	}
}

func TestTraceDisabled(t *testing.T) {
	h := Handler(Config{Node: "n1"})
	if rec := get(t, h, "/trace"); rec.Code != http.StatusNotFound {
		t.Errorf("disabled trace status = %d", rec.Code)
	}
}

func TestRingEndpoint(t *testing.T) {
	m := membership.NewManager("n1",
		membership.Member{Name: "n2", Status: membership.Alive, Epoch: 1},
		membership.Member{Name: "n3", Status: membership.Left, Epoch: 2})
	q := stable.NewQueue(stable.NewMemStore(nil), "q/")
	if err := q.Enqueue("a1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	h := Handler(Config{
		Node:       "n1",
		Membership: m,
		Queue:      q,
		Adopted:    func() int { return 3 },
	})
	rec := get(t, h, "/ring")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var d RingDump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Node != "n1" || d.VNodes != membership.DefaultVNodes {
		t.Errorf("node/vnodes = %q/%d", d.Node, d.VNodes)
	}
	if d.Depth != 1 || d.Claimed != 0 || d.Adopted != 3 {
		t.Errorf("placement stats = depth=%d claimed=%d adopted=%d", d.Depth, d.Claimed, d.Adopted)
	}
	if len(d.Members) != 3 {
		t.Fatalf("members = %+v", d.Members)
	}
	total := 0.0
	byName := map[string]RingMember{}
	for _, mm := range d.Members {
		byName[mm.Name] = mm
		total += mm.Share
	}
	// Left members report a zero share; the live ones split the space.
	if byName["n3"].Status != "left" || byName["n3"].Share != 0 {
		t.Errorf("left member = %+v", byName["n3"])
	}
	if byName["n1"].Status != "alive" || byName["n1"].Share <= 0 || byName["n2"].Share <= 0 {
		t.Errorf("live members = %+v %+v", byName["n1"], byName["n2"])
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v, want ~1", total)
	}
}

func TestRingDisabled(t *testing.T) {
	h := Handler(Config{Node: "n1"})
	if rec := get(t, h, "/ring"); rec.Code != http.StatusNotFound {
		t.Errorf("disabled ring status = %d", rec.Code)
	}
}

func TestPprofIndex(t *testing.T) {
	h, _, _ := testHandler(true)
	rec := get(t, h, "/debug/pprof/")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index = %d", rec.Code)
	}
	// The cmdline endpoint is the cheapest non-index pprof handler.
	if rec := get(t, h, "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Errorf("pprof cmdline = %d", rec.Code)
	}
}
