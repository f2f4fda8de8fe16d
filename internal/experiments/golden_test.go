package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// update rewrites the golden paper tables from this run:
//
//	go test ./internal/experiments -run 'TestPaperTablesGolden|TestFig6PinsLogSizes' -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// goldenUnstable names, per experiment, the columns besides the ms columns
// that do not repeat between runs: F4's comp txn aborts in the crash row
// (whether a compensation attempt meets the crashed node is a race by
// design) and F5's messages (it counts resends).
var goldenUnstable = map[string][]string{
	"f4": {"comp txn aborts"},
	"f5": {"messages"},
}

// isMsColumn reports whether a column header is a time in milliseconds.
// Those columns make transfer counts visible and never repeat.
func isMsColumn(header string) bool {
	return slices.Contains(strings.FieldsFunc(header, func(r rune) bool { return r == ' ' || r == '/' }), "ms")
}

// repeating returns the part of an experiment's table that repeats run
// to run: every column but the ms columns and goldenUnstable's.
func repeating(name string, tbl *Table) *Table {
	var keep []int
	out := &Table{Title: tbl.Title, Note: tbl.Note}
	for i, h := range tbl.Header {
		if isMsColumn(h) || slices.Contains(goldenUnstable[name], h) {
			continue
		}
		keep = append(keep, i)
		out.Header = append(out.Header, h)
	}
	for _, row := range tbl.Rows {
		cells := make([]string, len(keep))
		for j, i := range keep {
			cells[j] = row[i]
		}
		out.Rows = append(out.Rows, cells)
	}
	return out
}

// checkGolden compares the repeating columns of an experiment's table
// with testdata/<name>.golden, or rewrites the file under -update.
func checkGolden(t *testing.T, name string, tbl *Table) {
	t.Helper()
	var rendered, buf bytes.Buffer
	repeating(name, tbl).Fprint(&rendered)
	for _, line := range strings.Split(strings.TrimSuffix(rendered.String(), "\n"), "\n") {
		buf.WriteString(strings.TrimRight(line, " ") + "\n") // Fprint pads every cell
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("%s table differs from %s (rerun with -update if the change is intended and reviewed):\n got:%s\nwant:%s", name, path, got, want)
	}
}

// TestPaperTablesGolden pins the counter and byte columns of the paper's
// tables under testdata/, so a change that moves one shows up as a
// reviewed golden diff. F6 is pinned by TestFig6PinsLogSizes and the
// chaos table is a sample, not a figure.
func TestPaperTablesGolden(t *testing.T) {
	for _, e := range List() {
		if e.Name == "f6" || e.Name == "chaos" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			tbl, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if e.Name == "tperf" {
				checkPerfModelBound(t, tbl)
			}
			checkGolden(t, e.Name, tbl)
		})
	}
}

// perfModelBoundMs bounds how far a T-perf cell may sit from the §4.4.1
// closed form: Duration truncation to µs plus the table's two decimals.
const perfModelBoundMs = 0.01

// checkPerfModelBound holds every modelled cost of the T-perf table (the
// ms columns the golden file leaves out) within perfModelBoundMs of the
// closed form perfmodel documents, time(bytes, rtts) = 2·L·rtts +
// bytes/B, and the picked strategy to the cheapest of the three.
func checkPerfModelBound(t *testing.T, tbl *Table) {
	t.Helper()
	lMs := float64(tperfLink.Latency.Microseconds()) / 1000
	transfer := func(bytes, rtts int) float64 {
		return 2*lMs*float64(rtts) + float64(bytes)/tperfLink.ThroughputBps*1000
	}
	for _, row := range tbl.Rows {
		agentKB, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{
			2 * transfer(agentKB<<10, 2), // migrate: there and back, 2 round trips each
			transfer(tperfEntryBytes, 2), // ship: exec+ack, commit+ack
			float64(tperfOps)*transfer(tperfEntryBytes/tperfOps, 1) + transfer(0, 1), // rpc: one per op, then commit
		}
		got := make([]float64, len(want))
		for i := range want {
			if got[i], err = strconv.ParseFloat(row[1+i], 64); err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(got[i] - want[i]); d > perfModelBoundMs {
				t.Errorf("T-perf %d KB, %s = %s, closed form %.4f: off by %.4f ms > %.2f", agentKB, tbl.Header[1+i], row[1+i], want[i], d, perfModelBoundMs)
			}
		}
		cheapest := []string{"migrate-agent", "ship-entries", "rpc"}[slices.Index(got, slices.Min(got))]
		if pick := row[4]; pick != cheapest {
			t.Errorf("T-perf %d KB picks %s, cheapest column is %s", agentKB, pick, cheapest)
		}
	}
}

// TestFig6PinsLogSizes pins the paper's Figure 6 table — the peak encoded
// log of each variant — in testdata/f6.golden, and what transition
// logging saves over state logging with a savepoint per step. The sizes
// are a property of the container format (each is a log as a container
// encode carries it), so a format change has to re-baseline them there
// and say so in EXPERIMENTS.md; before the binary codec they were 183.24
// / 18.33 / 13.70 / 13.70 KB under gob.
func TestFig6PinsLogSizes(t *testing.T) {
	tab, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "f6", tab)
	var state, transition float64
	if _, err := fmt.Sscan(tab.Rows[0][3], &state); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(tab.Rows[1][3], &transition); err != nil {
		t.Fatal(err)
	}
	if ratio := fmt.Sprintf("%.3f", transition/state); ratio != "0.087" {
		t.Errorf("transition/state peak log ratio = %s, want 0.087", ratio)
	}
}
