package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stable"
	_ "repro/internal/stable/wal" // registers the wal engine
)

// storeProbe is the storage interposer of one traced run: an engine
// registered through stable.RegisterEngine that opens the real engine
// and times every call into it.
type storeProbe struct {
	rec    *recorder
	engine string // the name the interposer is registered under

	applies atomic.Int64
	ops     atomic.Int64
	gets    atomic.Int64

	// mu guards samples: queue-entry values seen in Apply, the raw
	// material of the container codec probes. Every sampleEvery-th
	// candidate is kept, up to maxSamples.
	mu      sync.Mutex
	seen    int
	samples [][]byte
}

const (
	sampleEvery = 16
	maxSamples  = 256
)

// spanEngines numbers the interposers: the engine registry has no
// unregister, so every traced run registers under a fresh name.
var spanEngines atomic.Int64

// newStoreProbe registers an interposer over the engine named inner.
func newStoreProbe(rec *recorder, inner string) *storeProbe {
	p := &storeProbe{rec: rec, engine: fmt.Sprintf("bench-span-%d", spanEngines.Add(1))}
	stable.RegisterEngine(p.engine, func(spec stable.Spec) (stable.Store, error) {
		// The cluster roots each node's store at <dir>/<node name>.
		node := filepath.Base(spec.Dir)
		spec.Engine = inner
		store, err := stable.Open(spec)
		if err != nil {
			return nil, err
		}
		return &spanStore{inner: store, p: p, node: node, trace: "node:" + node}, nil
	})
	return p
}

// spanStore wraps one node's store.
type spanStore struct {
	inner stable.Store
	p     *storeProbe
	node  string
	trace string // "node:<name>"
}

func (s *spanStore) Get(key string) ([]byte, bool, error) {
	t0 := s.p.rec.now()
	v, ok, err := s.inner.Get(key)
	if t0 != 0 {
		s.p.gets.Add(1)
		s.p.rec.add(s.trace, spanGet, s.node, spanNode, t0)
	}
	return v, ok, err
}

func (s *spanStore) Keys(prefix string) ([]string, error) { return s.inner.Keys(prefix) }

func (s *spanStore) Apply(batch ...stable.Op) error {
	t0 := s.p.rec.now()
	err := s.inner.Apply(batch...)
	if t0 != 0 {
		s.p.applies.Add(1)
		s.p.ops.Add(int64(len(batch)))
		s.p.rec.add(s.trace, spanApply, s.node, spanNode, t0)
		s.p.sample(batch)
	}
	return err
}

// Close makes the wrapper a stable.Reopener, so the cluster closes a
// durable inner engine through it.
func (s *spanStore) Close() error { return stable.Close(s.inner) }

// sample keeps some of the queue-entry values in batch.
func (p *storeProbe) sample(batch []stable.Op) {
	for _, op := range batch {
		if op.Value == nil || !strings.HasPrefix(op.Key, "q/") {
			continue
		}
		p.mu.Lock()
		p.seen++
		if p.seen%sampleEvery == 0 && len(p.samples) < maxSamples {
			p.samples = append(p.samples, append([]byte(nil), op.Value...))
		}
		p.mu.Unlock()
	}
}

// taken returns the sampled values.
func (p *storeProbe) taken() [][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.samples
}
