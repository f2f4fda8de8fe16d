package stable

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// FileStoreOptions tunes durability and caching of a FileStore.
type FileStoreOptions struct {
	// Sync forces fsync of every written file and its parent directory
	// before a batch is acknowledged, making "stable" mean stable across
	// power loss, not just process death. cmd/agentnode enables it;
	// simulations and benchmarks leave it off.
	Sync bool
	// CacheEntries bounds the read-through Get cache by entry count.
	// 0 selects the default (4096 entries); negative disables caching.
	// The cache is additionally bounded in bytes (see cacheMaxBytes);
	// values too large to be worth caching are never inserted.
	CacheEntries int
}

const (
	defaultCacheEntries = 4096
	// cacheMaxBytes bounds the cache's total value bytes so caching large
	// values (queued agent containers) cannot double the store's memory
	// footprint; cacheMaxValue keeps any single huge value from churning
	// the whole cache.
	cacheMaxBytes = 64 << 20
	cacheMaxValue = 4 << 20
)

// FileStore is a Store persisting each key as a file under a directory,
// with a write-ahead journal making Apply atomic across process crashes.
//
// Layout:
//
//	<dir>/journal            pending batch (gob of []Op), if present
//	<dir>/kv/<hex(key)>      value files
//
// Apply uses group commit: concurrent callers coalesce into a single
// journal write (one gob batch holding every caller's ops, via temp file +
// rename so the journal itself is atomic) followed by one fan-out apply,
// so N concurrent commits cost one journal round-trip instead of N.
// OpenFileStore replays a surviving journal; replay is idempotent because
// ops are plain puts/deletes. Get is served from a bounded read-through
// cache invalidated by Apply.
type FileStore struct {
	dir      string
	kvDir    string
	counters *metrics.Counters
	opts     FileStoreOptions

	// mu guards the cache and write-side file visibility; gen counts
	// applied batches so a cache-miss read can detect that a write
	// happened concurrently and skip inserting a possibly-stale value.
	mu         sync.RWMutex
	cache      map[string][]byte
	cacheBytes int
	gen        uint64

	group        *GroupCommit
	groupCommits atomic.Int64
}

var _ Store = (*FileStore)(nil)

// OpenFileStore opens (creating if necessary) a FileStore rooted at dir
// with default options (no fsync, default cache) and replays any pending
// journal. A nil counters is off.
func OpenFileStore(dir string, counters *metrics.Counters) (*FileStore, error) {
	return OpenFileStoreWith(dir, counters, FileStoreOptions{})
}

// OpenFileStoreWith is OpenFileStore with explicit options.
func OpenFileStoreWith(dir string, counters *metrics.Counters, opts FileStoreOptions) (*FileStore, error) {
	kvDir := filepath.Join(dir, "kv")
	if err := os.MkdirAll(kvDir, 0o755); err != nil {
		return nil, fmt.Errorf("stable: create store dir: %w", err)
	}
	s := &FileStore{dir: dir, kvDir: kvDir, counters: counters, opts: opts}
	s.group = NewGroupCommit(s.commitGroup)
	if opts.CacheEntries >= 0 {
		s.cache = make(map[string][]byte)
	}
	if err := s.replayJournal(); err != nil {
		return nil, err
	}
	return s, nil
}

// GroupCommits returns the number of journal commits performed; with
// concurrent Apply callers it is lower than the number of Apply calls by
// the coalescing factor. Exposed for benchmarks and tests.
func (s *FileStore) GroupCommits() int64 { return s.groupCommits.Load() }

func (s *FileStore) journalPath() string { return filepath.Join(s.dir, "journal") }

func (s *FileStore) keyPath(key string) string {
	return filepath.Join(s.kvDir, hex.EncodeToString([]byte(key)))
}

func (s *FileStore) cacheCap() int {
	if s.opts.CacheEntries > 0 {
		return s.opts.CacheEntries
	}
	return defaultCacheEntries
}

// cachePut stores value under key in the cache (copying it); a nil value
// removes the entry. The cache is bounded by entry count and total bytes;
// when either bound is hit it is reset wholesale — O(1) amortized, and
// hot keys repopulate on their next read. Values above cacheMaxValue are
// never cached (a few huge containers would evict everything else).
func (s *FileStore) cachePut(key string, value []byte) {
	if s.cache == nil {
		return
	}
	if old, ok := s.cache[key]; ok {
		s.cacheBytes -= len(old)
		delete(s.cache, key)
	}
	if value == nil || len(value) > cacheMaxValue {
		return
	}
	if len(s.cache) >= s.cacheCap() || s.cacheBytes+len(value) > cacheMaxBytes {
		s.cache = make(map[string][]byte)
		s.cacheBytes = 0
	}
	c := make([]byte, len(value))
	copy(c, value)
	s.cache[key] = c
	s.cacheBytes += len(c)
}

func (s *FileStore) replayJournal() error {
	data, err := os.ReadFile(s.journalPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("stable: read journal: %w", err)
	}
	var batch []Op
	if err := wire.Decode(data, &batch); err != nil {
		// A torn journal means the batch never committed; discard it.
		return os.Remove(s.journalPath())
	}
	if err := s.applyOps(batch); err != nil {
		return err
	}
	return os.Remove(s.journalPath())
}

// Get implements Store. Hits are served from the read-through cache;
// misses read the key file without holding any lock (value files are
// replaced by atomic rename, so a read sees a complete old or new value)
// and insert into the cache only if no batch was applied meanwhile, so a
// concurrent Apply can never be shadowed by a stale cache entry.
func (s *FileStore) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	if v, ok := s.cache[key]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		s.mu.RUnlock()
		return out, true, nil
	}
	gen := s.gen
	s.mu.RUnlock()

	data, err := os.ReadFile(s.keyPath(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("stable: get %q: %w", key, err)
	}
	if s.cache != nil {
		s.mu.Lock()
		if s.gen == gen {
			s.cachePut(key, data)
		}
		s.mu.Unlock()
	}
	return data, true, nil
}

// Keys implements Store.
func (s *FileStore) Keys(prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, err := os.ReadDir(s.kvDir)
	if err != nil {
		return nil, fmt.Errorf("stable: list keys: %w", err)
	}
	var keys []string
	for _, e := range entries {
		raw, err := hex.DecodeString(e.Name())
		if err != nil {
			continue // not a key file
		}
		key := string(raw)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Apply implements Store with group commit (see GroupCommit). All batches
// of a group share one crash-consistency point: the journal holds the
// whole group, so replay after a crash applies every batch of the group
// or none.
func (s *FileStore) Apply(batch ...Op) error { return s.group.Apply(batch) }

// commitGroup durably commits the concatenated ops of one group as one
// journal write + fan-out apply.
func (s *FileStore) commitGroup(ops []Op) error {
	data, err := wire.Encode(ops)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeFileAtomic(s.journalPath(), data); err != nil {
		return fmt.Errorf("stable: write journal: %w", err)
	}
	if s.opts.Sync {
		if err := s.syncDir(s.dir); err != nil {
			return fmt.Errorf("stable: sync journal dir: %w", err)
		}
	}
	if err := s.applyOps(ops); err != nil {
		return err
	}
	if s.opts.Sync {
		if err := s.syncDir(s.kvDir); err != nil {
			return fmt.Errorf("stable: sync kv dir: %w", err)
		}
	}
	if err := os.Remove(s.journalPath()); err != nil {
		return fmt.Errorf("stable: clear journal: %w", err)
	}
	s.groupCommits.Add(1)
	var bytes int64
	for _, op := range ops {
		bytes += int64(len(op.Value))
	}
	s.counters.IncStableWrite(bytes)
	return nil
}

// applyOps writes the op files and keeps the cache coherent. Callers hold
// s.mu (except single-threaded journal replay during open).
func (s *FileStore) applyOps(batch []Op) error {
	s.gen++
	for _, op := range batch {
		path := s.keyPath(op.Key)
		if op.Value == nil {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("stable: delete %q: %w", op.Key, err)
			}
			s.cachePut(op.Key, nil)
			continue
		}
		if err := s.writeFileAtomic(path, op.Value); err != nil {
			return fmt.Errorf("stable: put %q: %w", op.Key, err)
		}
		s.cachePut(op.Key, op.Value)
	}
	return nil
}

// writeFileAtomic writes data to path via temp file + rename; with
// opts.Sync the file contents are fsynced before the rename (the parent
// directory is synced once per batch by the caller).
func (s *FileStore) writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if s.opts.Sync {
		start := time.Now()
		err := f.Sync()
		s.counters.ObserveFsync(time.Since(start))
		if err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// syncDir fsyncs a directory so renames within it are durable.
func (s *FileStore) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	start := time.Now()
	err = d.Sync()
	s.counters.ObserveFsync(time.Since(start))
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
