package stable

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// Spec is the single configuration value for stable storage. Every
// component that used to hand-roll an engine factory — cluster options,
// the chaos harness, the experiment tables, and the cmd flag surfaces —
// now carries one Spec and constructs stores through Open.
type Spec struct {
	// Engine selects the storage engine: "mem" (default) or any engine
	// registered via RegisterEngine ("wal", the one durable engine, once
	// the stable/wal package is linked in).
	Engine string
	// Dir is the engine's data directory (ignored by "mem"). Multi-node
	// runtimes derive per-node directories with ForNode.
	Dir string
	// Sync forces fsync before a batch is acknowledged, making "stable"
	// mean stable across power loss rather than just process death.
	Sync bool
	// WAL tunes the log-structured engine; ignored by others.
	WAL WALSpec
	// Counters receives storage metrics; nil = off, methods are nil-safe
	// (as trace.Tracer).
	Counters *metrics.Counters
}

// WALSpec tunes the log-structured engine. Zero values select the
// engine's defaults; negative CheckpointEvery disables automatic
// checkpoints (matching wal.Options).
type WALSpec struct {
	SegmentSize     int64
	CheckpointEvery int64
}

// ForNode returns a copy of the Spec rooted at the node's own directory.
func (s Spec) ForNode(node string) Spec {
	if s.Dir != "" {
		s.Dir = filepath.Join(s.Dir, node)
	}
	return s
}

// Durable reports whether the engine persists outside process memory —
// i.e. whether crash simulation must Close and re-Open it to exercise
// real recovery.
func (s Spec) Durable() bool { return s.Engine != "" && s.Engine != "mem" }

var (
	enginesMu sync.Mutex
	engines   = map[string]func(Spec) (Store, error){}
)

// RegisterEngine installs a named engine constructor. Engines living in
// subpackages (stable/wal) register themselves in an init func; a
// program selects the engines it links by importing them.
func RegisterEngine(name string, open func(Spec) (Store, error)) {
	enginesMu.Lock()
	defer enginesMu.Unlock()
	if _, dup := engines[name]; dup {
		panic(fmt.Sprintf("stable: engine %q registered twice", name))
	}
	engines[name] = open
}

// Engines returns the registered engine names, sorted.
func Engines() []string {
	enginesMu.Lock()
	defer enginesMu.Unlock()
	names := make([]string, 0, len(engines))
	for n := range engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Open constructs the store described by spec. It is the only
// non-test construction path for storage engines.
func Open(spec Spec) (Store, error) {
	name := spec.Engine
	if name == "" {
		name = "mem"
	}
	enginesMu.Lock()
	open, ok := engines[name]
	enginesMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("stable: unknown engine %q (registered: %v; is its package linked in?)", name, Engines())
	}
	if name != "mem" && spec.Dir == "" {
		return nil, fmt.Errorf("stable: engine %q needs a data directory", name)
	}
	return open(spec)
}

func init() {
	RegisterEngine("mem", func(spec Spec) (Store, error) {
		return NewMemStore(spec.Counters), nil
	})
}
