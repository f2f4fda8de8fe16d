package stable

import (
	"errors"
	"fmt"
	"os"
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

// Layout numbers the layout of a durable engine's data directory: the
// engine's files and the keys and records the runtime keeps in them.
// Open stamps a new directory with it (its LAYOUT file) and opens no
// directory stamped otherwise or not at all. A layout change bumps Layout
// and adds the layout before to lastReaders.
//
// Layout 2: digital cash (resource.Cash) in an agent's data space is its
// binary form, no longer gob.
const Layout = 2

// lastReaders maps the stamp of each retired layout to the last commit
// that reads a data directory of it; "" is no stamp at all, as every
// runtime up to 0ea4125 wrote them.
var lastReaders = map[string]string{"": "0ea4125", "1\n": "15a522f"}

const layoutFile = "LAYOUT"

// Open constructs the store described by spec. It is the only
// non-test construction path for storage engines, and the one gate of
// a durable engine's data directory: see Layout.
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
	if name != "mem" {
		if spec.Dir == "" {
			return nil, fmt.Errorf("stable: engine %q needs a data directory", name)
		}
		if err := stampLayout(spec.Dir, spec.Sync); err != nil {
			return nil, err
		}
	}
	return open(spec)
}

// stampLayout reads dir's LAYOUT before any engine touches dir. A
// missing or empty dir (or one holding only a stamp's leftover temp file)
// is stamped with Layout; a dir stamped with Layout passes; any other is
// refused, unchanged.
func stampLayout(dir string, sync bool) error {
	want := fmt.Sprintf("%d\n", Layout)
	path := filepath.Join(dir, layoutFile)
	tmp := path + ".tmp"
	raw, err := os.ReadFile(path)
	if err == nil {
		if string(raw) == want {
			return nil
		}
		return refuseLayout(dir, string(raw), fmt.Sprintf("its %s holds %q", layoutFile, raw))
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(tmp) {
			return refuseLayout(dir, "", "it holds no "+layoutFile)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(tmp, []byte(want), sync); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if sync {
		return syncDir(dir)
	}
	return nil
}

// refuseLayout refuses dir, stamped stamp ("" none), naming the last
// commit that reads it when there is one.
func refuseLayout(dir, stamp, why string) error {
	reader := "no commit this runtime knows of reads it"
	if commit, ok := lastReaders[stamp]; ok {
		reader = commit + " is the last commit that reads it (finish or drain its agents there)"
	}
	return fmt.Errorf("stable: data dir %s is not stamped with layout %d, the one this runtime reads (%s); %s", dir, Layout, why, reader)
}

// writeFile writes data to path, fsynced if sync is set.
func writeFile(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

// syncDir fsyncs a directory, so a rename in it is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}

func init() {
	RegisterEngine("mem", func(spec Spec) (Store, error) {
		return NewMemStore(spec.Counters), nil
	})
}
