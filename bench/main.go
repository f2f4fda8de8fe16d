// Command bench is the repository benchmark: closed-loop agent tours
// against an in-process cluster and against real agentnode processes
// over TCP, with end-to-end metrics measured untraced and per-layer
// metrics attributed from outside the program in a separate traced run.
// See README.md in this directory.
//
//	go run ./bench                       # every workload, untraced then traced
//	go run ./bench -workload tour-wan    # one workload
//	go run ./bench -agree                # two full sets; fail if they disagree
//
// The benchmark driver's form runs one workload in one mode and prints
// one JSON line:
//
//	go run ./bench --workload tour-forward --seed 3 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// Phase lengths. The traced run's window is shorter in a full run: it
// feeds diagnostics, not gates.
const (
	warmup       = 3 * time.Second
	tracedWarmup = 2 * time.Second
	tracedWindow = 8 * time.Second
)

// Constructions timed per run for setup_s: an in-process cluster takes a
// few milliseconds to build, three processes take tens.
const (
	tourSetups = 61
	tripSetups = 31
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int // 0 untraced, 1 traced, -1 both
	agree    bool
	out      string
}

// buildDir holds everything a run leaves behind while it runs: data
// dirs, child logs and the agentnode binary. It is inside the checkout
// and named in the root .gitignore.
const buildDir = ".bench_build"

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated agents")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced run only, 1: traced run only, -1: both")
	flag.BoolVar(&o.agree, "agree", false, "run two full sets and fail if an end-to-end metric differs by more than its bound")
	flag.StringVar(&o.out, "out", "", "also write the JSON document to this file")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || o.trace < -1 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if o.agree {
		o.trace = 0 // agreement is about the end-to-end metrics
	}
	// run's deferred clean-up must finish before the process exits.
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	workDir, err := os.MkdirTemp(ensureDir(buildDir), "run-")
	if err != nil {
		return err
	}
	// Children die and the work directory goes on every exit path:
	// deferred here for returns and panics, from the handler for signals.
	cleanup := func() {
		killChildren()
		os.RemoveAll(workDir)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
	startSpinners()
	b := &bench{o: o, workDir: workDir}
	for _, w := range selected {
		if w.tcp {
			if b.agentnode, err = buildAgentnode(buildDir); err != nil {
				return err
			}
		}
	}

	// The driver's form: one workload, one mode, one line.
	if o.workload != "" && o.trace >= 0 && !o.agree {
		res, err := b.one(selected[0], o.trace == 1)
		if err != nil {
			return err
		}
		printTable(os.Stderr, []*runResult{res})
		defs := endToEnd
		if res.Traced {
			defs = perLayer
		}
		declared := make(map[string]metric, len(defs))
		for _, d := range defs {
			declared[d.name] = res.Metrics[d.name]
		}
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, declared})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: correctness checks failed: %s", res.Workload, strings.Join(res.Problems, "; "))
		}
		return nil
	}

	sets := 1
	if o.agree {
		sets = 2
	}
	doc := document{Env: environment(o, workDir)}
	var failed []string
	for set := 0; set < sets; set++ {
		var results []*runResult
		for _, w := range selected {
			for _, traced := range []bool{false, true} {
				if o.trace >= 0 && traced != (o.trace == 1) {
					continue
				}
				res, err := b.one(w, traced)
				if err != nil {
					return err
				}
				results = append(results, res)
				if !res.Correct {
					failed = append(failed, fmt.Sprintf("%s: %s", w.name, strings.Join(res.Problems, "; ")))
				}
			}
		}
		printTable(os.Stderr, results)
		doc.Sets = append(doc.Sets, results)
	}
	if o.agree {
		doc.Agreement = agreement(doc.Sets[0], doc.Sets[1])
		for _, a := range doc.Agreement {
			if !a.Within {
				failed = append(failed, fmt.Sprintf("%s %s: %.4g vs %.4g differ by %.1f%% (bound %.0f%%)",
					a.Workload, a.Metric, a.First, a.Second, 100*a.Diff, 100*a.Bound))
			}
		}
		printAgreement(os.Stderr, doc.Agreement)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if o.out != "" {
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

// bench carries what every run of one invocation shares.
type bench struct {
	o         options
	workDir   string
	agentnode string
}

// one runs one workload once, traced or not.
func (b *bench) one(w workload, traced bool) (*runResult, error) {
	cfg := runConfig{
		w: w, seed: b.o.seed, traced: traced, setups: tourSetups,
		warmup: warmup, window: time.Duration(b.o.seconds) * time.Second,
		workDir: b.workDir, agentnode: b.agentnode,
		traceDir: filepath.Join("bench", "out"),
	}
	if w.tcp {
		cfg.setups = tripSetups
	}
	if traced {
		cfg.warmup = tracedWarmup
		if b.o.trace < 0 && cfg.window > tracedWindow {
			cfg.window = tracedWindow
		}
		// As long as the window, so that both phases pick their best
		// slice from the same number of slices.
		cfg.reference = cfg.window
	}
	fmt.Fprintf(os.Stderr, "bench: %s (traced=%v, window %v)...\n", w.name, traced, cfg.window)
	return runWorkload(cfg)
}

func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// buildAgentnode compiles cmd/agentnode, outside any timer.
func buildAgentnode(dir string) (string, error) {
	abs, err := filepath.Abs(ensureDir(dir))
	if err != nil {
		return "", err
	}
	bin := filepath.Join(abs, "agentnode")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/agentnode")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build agentnode: %w", err)
	}
	return bin, nil
}

// document is the full run's JSON output.
type document struct {
	Env       env            `json:"env"`
	Sets      [][]*runResult `json:"sets"`
	Agreement []agreed       `json:"agreement,omitempty"`
}

// env records where the numbers come from.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	DataDir    string `json:"data_dir"`
	DataFS     string `json:"data_fs"`
	Seed       int64  `json:"seed"`
	WindowS    int    `json:"window_s"`
	WarmupS    int    `json:"warmup_s"`
}

func environment(o options, workDir string) env {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, DataDir: buildDir, DataFS: fsType(workDir),
		Seed: o.seed, WindowS: o.seconds, WarmupS: int(warmup / time.Second),
	}
}

// agreed compares one end-to-end metric of one workload across two sets.
type agreed struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Diff     float64 `json:"diff"` // |second-first| / first
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

func agreement(first, second []*runResult) []agreed {
	var out []agreed
	for i, a := range first {
		b := second[i]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := math.Abs(ratio(y-x, x))
			out = append(out, agreed{a.Workload, d.name, x, y, diff, d.bound, diff <= d.bound})
		}
	}
	return out
}

func printAgreement(w *os.File, as []agreed) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdiff\tbound\t")
	for _, a := range as {
		mark := ""
		if !a.Within {
			mark = "DISAGREE"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.2f%%\t%.0f%%\t%s\n", a.Workload, a.Metric, a.First, a.Second, 100*a.Diff, 100*a.Bound, mark)
	}
	tw.Flush()
}

// printTable writes the human-readable form of results.
func printTable(w *os.File, results []*runResult) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, r := range results {
		defs, mode := endToEnd, "untraced"
		if r.Traced {
			defs, mode = append(append([]metricDef(nil), endToEnd...), perLayer...), "traced"
		}
		fmt.Fprintf(tw, "== %s (%s)\tattempted %d\tfailed %d\tcorrect %v\n", r.Workload, mode, r.Attempted, r.Failed, r.Correct)
		for _, d := range defs {
			fmt.Fprintf(tw, "%s\t%.4f\t%s\n", d.name, r.Metrics[d.name].Value, d.unit)
		}
		for _, p := range r.Problems {
			fmt.Fprintf(tw, "PROBLEM\t%s\n", p)
		}
	}
	tw.Flush()
}
