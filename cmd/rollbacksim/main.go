// Command rollbacksim regenerates the experiments of EXPERIMENTS.md on the
// simulated cluster: one table per paper figure plus the §4.2/§4.3 prose
// claims (see DESIGN.md for the mapping).
//
// Usage:
//
//	rollbacksim                 # run every experiment
//	rollbacksim -exp f5         # run one experiment
//	rollbacksim -list           # list the experiments by name
//	rollbacksim -json out.json  # also write the tables as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
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

func run(args []string, stdout io.Writer) error {
	exps := experiments.List()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	fs := flag.NewFlagSet("rollbacksim", flag.ContinueOnError)
	exp := fs.String("exp", "", "run a single experiment ("+strings.Join(names, ", ")+")")
	list := fs.Bool("list", false, "list experiments and exit")
	jsonPath := fs.String("json", "", "write the experiment tables as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-5s %s\n", e.Name, e.Desc)
		}
		return nil
	}

	var out []jsonTable
	for _, e := range exps {
		if *exp != "" && e.Name != *exp {
			continue
		}
		tbl, err := e.Run()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.Name, err)
		}
		tbl.Fprint(stdout)
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
		fmt.Fprintf(stdout, "\nwrote %d experiment table(s) to %s\n", len(out), *jsonPath)
	}
	return nil
}
