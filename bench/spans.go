package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A span's parent is named, not numbered: within one trace
// the parent instance is the span of that name whose interval contains
// the child (steps of one agent never overlap).
const (
	spanAgent    = "agent"          // root: owner launch -> result
	spanLaunch   = "cluster.launch" // inside Cluster.Launch / the ctl send
	spanStep     = "agent.step"
	spanComp     = "agent.comp"
	spanResource = "resource.op"
	spanNode     = "node" // root of one node's storage spans
	spanApply    = "stable.apply"
	spanGet      = "stable.get"
	spanEncode   = "ctl.launch_encode"
	spanDecode   = "ctl.done_decode"
)

// span is one timed interval recorded by a harness interposer. Times are
// nanoseconds since the recorder was created.
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Node   string `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder holds spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pass nil and pay nothing. While on
// is false (the traced run's reference phase) the interposers stay
// installed but skip recording.
type recorder struct {
	base time.Time
	on   atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// now returns the recorder clock, or 0 when r is nil or off; callers
// treat 0 as "do not record".
func (r *recorder) now() int64 {
	if r == nil || !r.on.Load() {
		return 0
	}
	return int64(time.Since(r.base)) + 1 // never 0 while recording
}

// add records [start, now) if start came from a recording now().
func (r *recorder) add(trace, name, node, parent string, start int64) {
	if start == 0 {
		return
	}
	r.put(span{Trace: trace, Name: name, Node: node, Start: start, End: int64(time.Since(r.base)) + 1, Parent: parent})
}

// put records a span whose interval the caller measured itself.
func (r *recorder) put(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take hands over the recorded spans and forgets them: the recorder
// outlives its run (the engine registry keeps the interposer that holds
// it), the spans should not.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spans
	r.spans = nil
	return spans
}

// writeJSONL writes one span per line to dir/trace-<workload>.jsonl.
func writeJSONL(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// covered returns the length of the union of the children's intervals
// clipped to [start, end].
func covered(start, end int64, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var sum int64
	edge := start
	for _, c := range children {
		s, e := max(c.Start, edge), min(c.End, end)
		if e > s {
			sum += e - s
			edge = e
		}
	}
	return sum
}

// indexSpans groups spans by trace and name.
func indexSpans(spans []span) map[string]map[string][]span {
	idx := make(map[string]map[string][]span)
	for _, s := range spans {
		byName := idx[s.Trace]
		if byName == nil {
			byName = make(map[string][]span)
			idx[s.Trace] = byName
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	return idx
}

// selfTime is a span's duration minus the part its direct children cover.
func selfTime(root span, byName map[string][]span) int64 {
	var children []span
	for _, ss := range byName {
		for _, s := range ss {
			if s.Parent == root.Name && s.Start >= root.Start && s.End <= root.End {
				children = append(children, s)
			}
		}
	}
	return root.dur() - covered(root.Start, root.End, children)
}

// durations returns the durations, in the given unit, of every span of
// that name.
func durations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}
