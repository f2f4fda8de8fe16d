package metrics

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus renders a Snapshot plus a step-latency summary in the
// Prometheus text exposition format (version 0.0.4). The metric set is
// derived from the fields declaration by reflection so new counters
// appear on /metrics without touching this file:
//
//   - int64 fields become counters named repro_<snake_case>_total,
//     except isPeak fields, which are gauges (repro_<snake_case>)
//     because they are not monotone across Snapshot.Sub windows;
//   - map[string]int64 fields become one counter with a kind="…" label
//     per key, emitted in sorted key order;
//   - the NetBatchSize and DecisionBatchSize arrays become classic
//     cumulative histograms over BatchSizeBuckets with
//     _sum = NetBatchedMsgs / DecisionOps and
//     _count = NetBatches / DecisionBatches.
//
// The latency summary is emitted as repro_step_latency_seconds quantile
// samples plus the reservoir histogram as cumulative le="…" gauges.
// Output is fully deterministic for a given input, which the golden
// test relies on.
func WritePrometheus(w io.Writer, s Snapshot, lat LatencySummary) error {
	bw := &errWriter{w: w}
	v := reflect.ValueOf(s)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := "repro_" + snakeCase(f.Name)
		switch {
		case f.Name == "NetBatchSize":
			writeBatchHistogram(bw, "repro_net_batch_size", s.NetBatchSize, s.NetBatchedMsgs, s.NetBatches)
		case f.Name == "DecisionBatchSize":
			writeBatchHistogram(bw, "repro_decision_batch_size", s.DecisionBatchSize, s.DecisionOps, s.DecisionBatches)
		case f.Type.Kind() == reflect.Int64:
			if isPeak(f.Name) {
				bw.printf("# TYPE %s gauge\n%s %d\n", name, name, v.Field(i).Int())
			} else {
				bw.printf("# TYPE %s_total counter\n%s_total %d\n", name, name, v.Field(i).Int())
			}
		case f.Type.Kind() == reflect.Map:
			writeKindCounter(bw, name, v.Field(i).Interface().(map[string]int64))
		}
	}
	writeLatency(bw, lat)
	return bw.err
}

// errWriter folds write errors so the exposition loop stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func writeKindCounter(w *errWriter, name string, m map[string]int64) {
	w.printf("# TYPE %s_total counter\n", name)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.printf("%s_total{kind=%q} %d\n", name, k, m[k])
	}
}

func writeBatchHistogram(w *errWriter, name string, hist [len(BatchSizeBuckets) + 1]int64, sum, count int64) {
	w.printf("# TYPE %s histogram\n", name)
	var cum int64
	for i, n := range hist {
		cum += n
		le := "+Inf"
		if i < len(BatchSizeBuckets) {
			le = strconv.FormatInt(BatchSizeBuckets[i], 10)
		}
		w.printf("%s_bucket{le=%q} %d\n", name, le, cum)
	}
	w.printf("%s_sum %d\n%s_count %d\n", name, sum, name, count)
}

func writeLatency(w *errWriter, lat LatencySummary) {
	const name = "repro_step_latency_seconds"
	w.printf("# TYPE %s summary\n", name)
	for _, q := range []struct {
		q string
		d time.Duration
	}{{"0.5", lat.P50}, {"0.9", lat.P90}, {"0.99", lat.P99}, {"0.999", lat.P999}} {
		w.printf("%s{quantile=%q} %s\n", name, q.q, formatSeconds(q.d))
	}
	w.printf("%s_count %d\n", name, lat.Count)
	// The reservoir histogram is a sliding window, not a monotone
	// counter, so it is exposed as cumulative gauges rather than a
	// Prometheus histogram.
	const res = "repro_step_latency_reservoir"
	w.printf("# TYPE %s gauge\n", res)
	var cum int64
	for i, n := range lat.Buckets {
		cum += n
		le := "+Inf"
		if i < len(LatencyBuckets) {
			le = formatSeconds(LatencyBuckets[i])
		}
		w.printf("%s{le=%q} %d\n", res, le, cum)
	}
}

// formatSeconds renders a duration as a Prometheus float in seconds
// without scientific notation or trailing zeros.
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', -1, 64)
}

// snakeCase converts a Go field name to snake_case, keeping acronym
// runs intact: "NetBatchedMsgs" → "net_batched_msgs", "WALRotations" →
// "wal_rotations", "SchedWorkerBusyNanos" → "sched_worker_busy_nanos".
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, r := range rs {
		if r >= 'A' && r <= 'Z' {
			// Start a new word at an upper preceded by a lower, or at
			// the last upper of an acronym run followed by a lower.
			if i > 0 && (isLower(rs[i-1]) || (i+1 < len(rs) && isLower(rs[i+1]))) {
				b.WriteByte('_')
			}
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func isLower(r rune) bool { return r >= 'a' && r <= 'z' }
