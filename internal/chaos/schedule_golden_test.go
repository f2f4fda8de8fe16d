package chaos_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
)

var updateSchedules = flag.Bool("update", false, "rewrite testdata/schedules.golden from this run")

// TestScheduleGolden pins the events seeds 1–5 expand to, one config
// without churn and one with. A repro line printed by an older build
// names only a seed and flags, so it replays the failing run only while
// every seed keeps its draws. The header line is not compared: it counts
// kinds of events, and a count can change with no draw changing.
func TestScheduleGolden(t *testing.T) {
	configs := []struct {
		name string
		cfg  chaos.GenConfig
	}{
		{"plain", chaos.GenConfig{Nodes: []string{"w0", "w1", "w2"}}},
		{"churn", chaos.GenConfig{Nodes: []string{"w0", "w1", "w2"}, Churn: 2, JoinNames: []string{"j0", "j1"}}},
	}
	var b strings.Builder
	for _, c := range configs {
		for seed := int64(1); seed <= 5; seed++ {
			fmt.Fprintf(&b, "# %s seed=%d\n", c.name, seed)
			for _, e := range chaos.Generate(seed, c.cfg).Events {
				fmt.Fprintf(&b, "%s\n", e)
			}
		}
	}
	path := filepath.Join("testdata", "schedules.golden")
	if *updateSchedules {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("seeds 1–5 no longer expand to %s:\n%s", path, got)
	}
}
