// Package obs is the node admin plane: one http.Handler exposing
// operational telemetry for a running agent node — Prometheus metrics,
// a health probe, the Go pprof endpoints and the causal trace ring.
//
// The handler is transport-agnostic (callers mount it on any listener)
// and read-only: every endpoint snapshots state without perturbing the
// protocol hot paths beyond what the tracer and counters already cost.
package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/stable"
	"repro/internal/trace"
)

// Config wires the admin plane to one node's observable state.
type Config struct {
	// Node is the node name reported by /healthz.
	Node string
	// Counters backs /metrics; nil = off, methods are nil-safe (as
	// Tracer), so /metrics then serves the all-zero exposition.
	Counters *metrics.Counters
	// Tracer backs /trace; nil makes /trace return 404.
	Tracer *trace.Tracer
	// Healthy reports whether the node is serving (e.g. recovery done);
	// nil means always healthy.
	Healthy func() bool
	// Membership backs /ring; nil makes /ring return 404 (the node runs
	// static wiring).
	Membership *membership.Manager
	// Queue adds local queue depth/claims to /ring; may be nil.
	Queue *stable.Queue
	// Adopted reports how many agents migrated in; may be nil.
	Adopted func() int
}

// RingMember is one member entry in the /ring dump.
type RingMember struct {
	Name   string  `json:"name"`
	Status string  `json:"status"`
	Epoch  int64   `json:"epoch"`
	Share  float64 `json:"share"` // fraction of the hash space owned; 0 when Left
}

// RingDump is the /ring response: this node's membership view, the ring
// ownership it derives, and the local agent-placement stats. Exported so
// agentctl decodes the same shape it serves.
type RingDump struct {
	Node    string       `json:"node"`
	VNodes  int          `json:"vnodes"`
	Members []RingMember `json:"members"`
	Depth   int          `json:"queue_depth"`
	Claimed int          `json:"queue_claimed"`
	Adopted int          `json:"adopted"`
}

// Handler returns the admin-plane HTTP handler:
//
//	/metrics            Prometheus text exposition of the counters
//	/healthz            200 "ok <node>" or 503 while not ready
//	/trace              causal trace ring as a JSON record array;
//	                    ?txn=ID, ?agent=ID filter, ?last=N tails
//	/ring               membership view + consistent-hash shares +
//	                    local placement stats as JSON (404 when the
//	                    node runs static wiring)
//	/debug/pprof/...    the standard Go profiling endpoints
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = metrics.WritePrometheus(w, cfg.Counters.Snapshot(), cfg.Counters.StepLatency())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Healthy != nil && !cfg.Healthy() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("not ready " + cfg.Node + "\n"))
			return
		}
		_, _ = w.Write([]byte("ok " + cfg.Node + "\n"))
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Tracer == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		rs := cfg.Tracer.Snapshot()
		if txn := r.URL.Query().Get("txn"); txn != "" {
			rs = trace.FilterTxn(rs, txn)
		}
		if ag := r.URL.Query().Get("agent"); ag != "" {
			rs = trace.FilterAgent(rs, ag)
		}
		if last := r.URL.Query().Get("last"); last != "" {
			n, err := strconv.Atoi(last)
			if err != nil || n < 0 {
				http.Error(w, "bad last parameter", http.StatusBadRequest)
				return
			}
			if n < len(rs) {
				rs = rs[len(rs)-n:]
			}
		}
		trace.CausalSort(rs)
		w.Header().Set("Content-Type", "application/json")
		_ = trace.WriteJSON(w, rs)
	})
	mux.HandleFunc("/ring", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Membership == nil {
			http.Error(w, "membership disabled", http.StatusNotFound)
			return
		}
		view := cfg.Membership.View()
		ring := cfg.Membership.Ring()
		shares := ring.Shares()
		d := RingDump{Node: cfg.Node, VNodes: ring.VNodes()}
		for _, m := range view.Members {
			d.Members = append(d.Members, RingMember{
				Name:   m.Name,
				Status: m.Status.String(),
				Epoch:  m.Epoch,
				Share:  shares[m.Name],
			})
		}
		if cfg.Queue != nil {
			d.Depth, _ = cfg.Queue.Len()
			d.Claimed = cfg.Queue.Claimed()
		}
		if cfg.Adopted != nil {
			d.Adopted = cfg.Adopted()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(d)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
