package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// counts is the program's public counter surface, keyed by Prometheus
// sample name (labels included). Both cluster kinds are read through the
// same exposition text: an in-process cluster renders its Counters with
// metrics.WritePrometheus, a TCP cluster is scraped over /metrics.
type counts map[string]float64

// isCounter reports whether a sample is monotone (summed over nodes and
// differenced over time); the rest are gauges (peaks), which take the
// maximum over nodes and are not differenced.
func isCounter(key string) bool {
	name, _, _ := strings.Cut(key, "{")
	return strings.HasSuffix(name, "_total")
}

// merge folds one exposition text into c.
func (c counts) merge(text string) error {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return fmt.Errorf("metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return fmt.Errorf("metrics: sample %q: %w", line, err)
		}
		key := line[:i]
		if isCounter(key) {
			c[key] += v
		} else if v > c[key] {
			c[key] = v
		}
	}
	return nil
}

// sub returns the counter deltas c - o; gauges keep c's value.
func (c counts) sub(o counts) counts {
	out := make(counts, len(c))
	for k, v := range c {
		if isCounter(k) {
			v -= o[k]
		}
		out[k] = v
	}
	return out
}

// get reads the counter named after a metrics.Snapshot field, e.g.
// "step_txns" for repro_step_txns_total.
func (c counts) get(field string) float64 { return c["repro_"+field+"_total"] }

// gauge reads a peak gauge, e.g. "log_bytes_peak".
func (c counts) gauge(field string) float64 { return c["repro_"+field] }

// kindSum adds the per-kind samples of a labelled counter over kinds; no
// kinds means all of them.
func (c counts) kindSum(field string, kinds ...string) float64 {
	prefix := "repro_" + field + "_total{kind="
	var sum float64
	for k, v := range c {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		kind := strings.Trim(strings.TrimSuffix(rest, "}"), `"`)
		if len(kinds) == 0 {
			sum += v
			continue
		}
		for _, want := range kinds {
			if kind == want {
				sum += v
			}
		}
	}
	return sum
}

// renderCounters is the in-process stand-in for a /metrics scrape.
func renderCounters(c *metrics.Counters) string {
	var buf bytes.Buffer
	_ = metrics.WritePrometheus(&buf, c.Snapshot(), metrics.LatencySummary{})
	return buf.String()
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// httpGet fetches one admin-plane URL.
func httpGet(url string) (string, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", url, resp.Status)
	}
	return string(body), nil
}
