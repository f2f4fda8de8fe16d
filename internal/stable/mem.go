package stable

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// MemStore is an in-memory Store. In the simulated cluster the MemStore is
// owned by the cluster, not the node, so it survives injected node crashes
// exactly like a disk would; only the node's volatile state is lost.
//
// Apply holds the store lock for the whole batch, so a batch is atomic with
// respect to both concurrent readers and simulated crash points (which can
// only occur between Go statements of other goroutines, never inside the
// critical section).
type MemStore struct {
	mu       sync.RWMutex
	data     map[string][]byte
	counters *metrics.Counters
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty MemStore. A nil counters is off.
func NewMemStore(counters *metrics.Counters) *MemStore {
	return &MemStore{
		data:     make(map[string][]byte),
		counters: counters,
	}
}

// Get implements Store.
func (s *MemStore) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true, nil
}

// Keys implements Store.
func (s *MemStore) Keys(prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Apply implements Store.
func (s *MemStore) Apply(batch ...Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var bytes int64
	for _, op := range batch {
		if op.Value == nil {
			delete(s.data, op.Key)
			continue
		}
		v := make([]byte, len(op.Value))
		copy(v, op.Value)
		s.data[op.Key] = v
		bytes += int64(len(v))
	}
	s.counters.IncStableWrite(bytes)
	return nil
}

// Len returns the number of stored keys (for tests).
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}
