package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// runMetrics scrapes a node admin plane's /metrics endpoint and renders
// the exposition as an aligned table, hiding zero-valued series unless
// -all is given.
func runMetrics(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("agentctl metrics", flag.ContinueOnError)
	var (
		obsURL  = fs.String("obs", "http://127.0.0.1:7901", "admin-plane base URL (agentnode -obs-addr)")
		filter  = fs.String("filter", "", "only show metrics whose name contains this substring")
		all     = fs.Bool("all", false, "include zero-valued metrics")
		timeout = fs.Duration("timeout", 5*time.Second, "scrape timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, err := httpGet(strings.TrimRight(*obsURL, "/")+"/metrics", *timeout)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	shown := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, value := line[:sp], line[sp+1:]
		if *filter != "" && !strings.Contains(name, *filter) {
			continue
		}
		if !*all {
			if v, err := strconv.ParseFloat(value, 64); err == nil && v == 0 {
				continue
			}
		}
		fmt.Fprintf(tw, "%s\t%s\n", name, value)
		shown++
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if shown == 0 {
		fmt.Fprintln(out, "no matching non-zero metrics (use -all to include zeros)")
	}
	return nil
}

// runRing fetches a node's membership view from the admin plane's /ring
// endpoint and renders it: one row per member with its status, epoch and
// owned fraction of the hash space, plus the node's local placement
// stats (queue depth, claims in flight).
func runRing(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("agentctl ring", flag.ContinueOnError)
	var (
		obsURL  = fs.String("obs", "http://127.0.0.1:7901", "admin-plane base URL (agentnode -obs-addr)")
		timeout = fs.Duration("timeout", 5*time.Second, "fetch timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, err := httpGet(strings.TrimRight(*obsURL, "/")+"/ring", *timeout)
	if err != nil {
		return err
	}
	var d obs.RingDump
	if err := json.Unmarshal(body, &d); err != nil {
		return fmt.Errorf("decode ring: %w", err)
	}
	fmt.Fprintf(out, "node %s: %d members, %d vnodes/member, queue depth=%d claimed=%d\n",
		d.Node, len(d.Members), d.VNodes, d.Depth, d.Claimed)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "MEMBER\tSTATUS\tEPOCH\tSHARE")
	for _, m := range d.Members {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f%%\n", m.Name, m.Status, m.Epoch, 100*m.Share)
	}
	return tw.Flush()
}

// runTrace fetches causal trace records from a node admin plane's /trace
// endpoint, optionally filtered, and pretty-prints them with timestamps
// relative to the first record.
func runTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("agentctl trace", flag.ContinueOnError)
	var (
		obsURL  = fs.String("obs", "http://127.0.0.1:7901", "admin-plane base URL (agentnode -obs-addr)")
		txn     = fs.String("txn", "", "only records of this transaction")
		agentID = fs.String("agent", "", "only records of this agent (join-aware)")
		last    = fs.Int("last", 0, "only the last N records (0 = all)")
		timeout = fs.Duration("timeout", 5*time.Second, "fetch timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := url.Values{}
	if *txn != "" {
		q.Set("txn", *txn)
	}
	if *agentID != "" {
		q.Set("agent", *agentID)
	}
	if *last > 0 {
		q.Set("last", strconv.Itoa(*last))
	}
	u := strings.TrimRight(*obsURL, "/") + "/trace"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	body, err := httpGet(u, *timeout)
	if err != nil {
		return err
	}
	rs, err := trace.DecodeJSON(body)
	if err != nil {
		return fmt.Errorf("decode trace: %w", err)
	}
	if len(rs) == 0 {
		fmt.Fprintln(out, "no trace records matched")
		return nil
	}
	nodes := map[string]bool{}
	for _, r := range rs {
		nodes[r.Node] = true
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%d records from node(s) %s\n", len(rs), strings.Join(names, ", "))
	base := rs[0].T
	for _, r := range rs {
		fmt.Fprintln(out, trace.FormatRecord(r, base))
	}
	return nil
}
