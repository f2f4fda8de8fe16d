// Command rollbacksim regenerates the experiments of EXPERIMENTS.md on the
// simulated cluster: one table per paper figure plus the §4.2/§4.3 prose
// claims (see DESIGN.md for the mapping).
//
// Usage:
//
//	rollbacksim                 # run every experiment
//	rollbacksim -exp f5         # run one experiment (f1..f6, tlog, tft, tperf, tput, stor, repl)
//	rollbacksim -list           # list experiments
//	rollbacksim -json out.json  # also write the tables as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rollbacksim:", err)
		os.Exit(1)
	}
}

// jsonTable is the machine-readable form of one experiment table, written
// by -json.
type jsonTable struct {
	Name   string     `json:"name"`
	Title  string     `json:"title"`
	Note   string     `json:"note,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("rollbacksim", flag.ContinueOnError)
	exp := fs.String("exp", "", "run a single experiment (f1..f6, tlog, tft, tperf, tput, stor, repl, chaos)")
	list := fs.Bool("list", false, "list experiments and exit")
	jsonPath := fs.String("json", "", "write the experiment tables as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println("f1    Figure 1: step execution cost vs agent payload")
		fmt.Println("f2    Figure 2: rollback log layout and size")
		fmt.Println("f3    Figures 3-4: rollback cost vs steps rolled back")
		fmt.Println("f4    Figure 4: rollback under node crash + recovery")
		fmt.Println("f5    Figure 5: basic vs optimized rollback")
		fmt.Println("f6    Figure 6: log size, flat vs itinerary-managed")
		fmt.Println("tlog  §4.2: state vs transition logging")
		fmt.Println("tft   §4.3: rollback with an unreachable node")
		fmt.Println("tperf §4.4.1: remote-compensation strategy model ([16])")
		fmt.Println("tput  node throughput vs scheduler workers (see also cmd/loadgen)")
		fmt.Println("stor  stable-storage engines: durable Apply throughput + crash-recovery time")
		fmt.Println("repl  replicated stable storage: ack-mode cost on the step path")
		fmt.Println("chaos seeded fault schedules vs §4.3 invariants (replay: loadgen -chaos)")
		return nil
	}

	var out []jsonTable
	for _, e := range experiments.List() {
		if *exp != "" && e.Name != *exp {
			continue
		}
		tbl, err := e.Run()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.Name, err)
		}
		tbl.Fprint(os.Stdout)
		out = append(out, jsonTable{
			Name: e.Name, Title: tbl.Title, Note: tbl.Note,
			Header: tbl.Header, Rows: tbl.Rows,
		})
	}
	if len(out) == 0 {
		return fmt.Errorf("unknown experiment %q (use -list)", *exp)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d experiment table(s) to %s\n", len(out), *jsonPath)
	}
	return nil
}
