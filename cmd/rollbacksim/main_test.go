package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListFlag: -list prints exactly the suite's experiments, one per
// line, name first, each with its description.
func TestListFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	want := []string{"f1", "f2", "f3", "f4", "f5", "f6", "tlog", "tft", "tperf", "chaos"}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, line := range lines {
		if f := strings.Fields(line); len(f) < 2 || f[0] != want[i] {
			t.Errorf("-list line %d = %q, want %q and a description", i, line, want[i])
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "bogus"}, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestExperimentList: -exp takes a comma-separated list, runs it in the
// order given, and refuses an unknown name by name before running any.
func TestExperimentList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "tperf,f2"}, &out); err != nil {
		t.Fatal(err)
	}
	tperf, f2 := strings.Index(out.String(), "== T-perf"), strings.Index(out.String(), "== F2")
	if tperf < 0 || f2 < tperf {
		t.Errorf("-exp tperf,f2 printed T-perf at %d and F2 at %d:\n%s", tperf, f2, out.String())
	}

	out.Reset()
	err := run([]string{"-exp", "f2,bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("-exp f2,bogus: err = %v, want one naming \"bogus\"", err)
	}
	if out.Len() != 0 {
		t.Errorf("-exp f2,bogus ran experiments before refusing:\n%s", out.String())
	}
}

func TestSingleCheapExperiment(t *testing.T) {
	for _, exp := range []string{"f2", "tlog", "tperf"} {
		if err := run([]string{"-exp", exp}, io.Discard); err != nil {
			t.Errorf("experiment %s: %v", exp, err)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := run([]string{"-exp", "f2", "-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tables []jsonTable
	if err := json.Unmarshal(data, &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].Name != "f2" || len(tables[0].Rows) == 0 {
		t.Errorf("tables = %+v", tables)
	}
	if len(tables[0].Header) == 0 || len(tables[0].Rows[0]) != len(tables[0].Header) {
		t.Errorf("header/row mismatch: %+v", tables[0])
	}
}
