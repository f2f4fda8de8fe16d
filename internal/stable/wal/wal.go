// Package wal implements a log-structured stable.Store: batches append as
// length-prefixed, checksummed records to an active segment file, an
// in-memory hash index maps every live key to its value's location,
// segments rotate at a configurable size, a background compactor rewrites
// the live keys of cold segments and deletes them, and periodic
// checkpoints persist the index so crash recovery replays only the log
// tail written since the last checkpoint (bounded recovery).
//
// Durability contract matches stable.FileStore: Apply returns only after
// the group holding the batch is on disk — in the OS page cache by
// default (surviving process death), fsynced when Options.Sync is set
// (surviving power loss). Group commit is preserved from the FileStore:
// concurrent Apply callers coalesce into a single record append and a
// single fsync.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/stable"
)

// Options tunes a WAL store.
type Options struct {
	// Sync forces an fsync of the active segment before a group is
	// acknowledged (and fsyncs rotations), making "stable" mean stable
	// across power loss rather than just process death.
	Sync bool
	// SegmentSize is the rotation threshold in bytes (default 4 MiB).
	SegmentSize int64
	// CheckpointEvery triggers an automatic index checkpoint after that
	// many appended bytes (default 1 MiB). Negative disables automatic
	// checkpoints (recovery then replays from the newest persisted
	// checkpoint, or the whole log if none was ever written).
	CheckpointEvery int64
	// CompactFraction is the garbage fraction (dead bytes / segment size)
	// at which a checkpoint-covered sealed segment is compacted (default
	// 0.5). Negative disables the compactor.
	CompactFraction float64
	// NoBackground disables the maintenance goroutine; checkpoints and
	// compaction then only happen through explicit Checkpoint/Compact
	// calls (tests and experiments).
	NoBackground bool
	// Counters receives metrics; nil = off, methods are nil-safe (as
	// trace.Tracer).
	Counters *metrics.Counters
}

func (o *Options) fillDefaults() {
	if o.SegmentSize == 0 {
		o.SegmentSize = 4 << 20
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 1 << 20
	}
	if o.CompactFraction == 0 {
		o.CompactFraction = 0.5
	}
}

// RecoveryStats describes what Open had to do to rebuild the store.
type RecoveryStats struct {
	CheckpointLoaded bool  // a valid checkpoint bounded the replay
	CheckpointKeys   int   // index entries restored from the checkpoint
	SegmentsScanned  int   // segments the replay had to read
	OpsReplayed      int   // record ops applied on top of the checkpoint
	BytesReplayed    int64 // bytes the replay had to scan
	TornTailBytes    int64 // bytes truncated off the active segment
}

// Store is the log-structured engine. It implements stable.Store plus
// Close; see the package comment for the design.
type Store struct {
	dir      string
	opts     Options
	counters *metrics.Counters

	// mu guards the index, the segment table and the active segment's
	// append state. Readers (Get/Keys) take it shared; appends (group
	// leader, compactor rewrites) take it exclusive only for index and
	// tail updates — file writes happen under wmu so readers are never
	// blocked behind disk I/O.
	mu     sync.RWMutex
	index  map[string]loc
	segs   map[uint32]*segment
	active *segment
	closed bool

	// wmu serializes writers (group leader, compactor, rotation) so tail
	// writes and their index publication happen in log order.
	wmu sync.Mutex

	totalAppended int64 // bytes ever appended (monotonic)
	ckpt          ckptPos
	ckptAppended  int64 // totalAppended at the last checkpoint
	ckptMu        sync.Mutex

	group        *stable.GroupCommit
	groupCommits atomic.Int64
	recovery     RecoveryStats

	maintCh chan struct{}
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

var _ stable.Store = (*Store)(nil)

// Open opens (creating if necessary) a WAL store rooted at dir, running
// crash recovery: load the newest checkpoint, replay the log tail, and
// truncate a torn final record.
func Open(dir string, opts Options) (*Store, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		counters: opts.Counters,
		index:    make(map[string]loc),
		segs:     make(map[uint32]*segment),
		maintCh:  make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
	}
	s.group = stable.NewGroupCommit(s.commitGroup)
	if err := s.recover(); err != nil {
		return nil, err
	}
	if !opts.NoBackground {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.maintain()
		}()
	}
	return s, nil
}

// Recovery returns what Open did to rebuild the store.
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// GroupCommits returns the number of record appends performed; under
// concurrent Apply load it is lower than the Apply count by the
// coalescing factor.
func (s *Store) GroupCommits() int64 { return s.groupCommits.Load() }

// --- recovery ---------------------------------------------------------

func (s *Store) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("wal: read dir: %w", err)
	}
	var ids []uint32
	for _, e := range entries {
		if id, ok := parseSegmentName(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	index, pos, err := loadCheckpoint(s.dir)
	switch {
	case err == nil:
		s.index = index
		s.ckpt = pos
		s.recovery.CheckpointLoaded = true
		s.recovery.CheckpointKeys = len(index)
	case errors.Is(err, errNoCheckpoint):
		// Full replay from the oldest surviving segment.
	default:
		return err
	}

	for _, id := range ids {
		path := filepath.Join(s.dir, segmentName(id))
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("wal: open segment: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return err
		}
		seg := &segment{id: id, f: f, size: fi.Size()}
		s.segs[id] = seg

		start := int64(-1) // -1: fully covered by the checkpoint, skip scan
		switch {
		case id > s.ckpt.seg:
			start = 0
		case id == s.ckpt.seg:
			start = s.ckpt.off
		}
		last := id == ids[len(ids)-1]
		if start >= 0 && start < seg.size {
			s.recovery.SegmentsScanned++
			end, err := scanRecords(f, start, seg.size, func(op scanOp, recEnd int64) error {
				s.applyToIndex(op, id)
				return nil
			})
			s.recovery.BytesReplayed += end - start
			if err != nil {
				if !errors.Is(err, errTorn) || !last {
					_ = f.Close()
					return fmt.Errorf("wal: segment %d: %w", id, err)
				}
				// Torn tail of the final segment: the record never
				// committed — truncate it away.
				s.recovery.TornTailBytes = seg.size - end
				if err := f.Truncate(end); err != nil {
					_ = f.Close()
					return fmt.Errorf("wal: truncate torn tail: %w", err)
				}
				if err := f.Sync(); err != nil {
					_ = f.Close()
					return err
				}
				seg.size = end
			}
		}
	}

	// Rebuild live-byte accounting from the final index.
	for key, l := range s.index {
		if seg, ok := s.segs[l.seg]; ok {
			seg.live += l.vlen + int64(len(key))
		} else {
			return fmt.Errorf("wal: index references missing segment %d", l.seg)
		}
	}

	// Garbage-collect segments fully covered by the checkpoint that no
	// index entry references (left over from a crash between re-checkpoint
	// and delete in the compactor).
	for id, seg := range s.segs {
		if id < s.ckpt.seg && seg.live == 0 {
			_ = seg.f.Close()
			if err := os.Remove(seg.path(s.dir)); err != nil && !os.IsNotExist(err) {
				return err
			}
			delete(s.segs, id)
		}
	}

	// The checkpoint's own segment is never compacted away, so its
	// absence means the directory was tampered with.
	if s.ckpt.seg != 0 && s.segs[s.ckpt.seg] == nil {
		return fmt.Errorf("wal: checkpoint position references missing segment %d", s.ckpt.seg)
	}

	// Open (or create) the active segment: the highest id, which the
	// check above guarantees is at or past the checkpoint position.
	if len(s.segs) == 0 {
		if err := s.createSegmentLocked(1); err != nil {
			return err
		}
	} else {
		for _, seg := range s.segs {
			if s.active == nil || seg.id > s.active.id {
				s.active = seg
			}
		}
	}
	for _, seg := range s.segs {
		s.totalAppended += seg.size
	}
	// Bytes replayed are exactly the bytes appended since the last
	// checkpoint; with no checkpoint the whole history is "since".
	s.ckptAppended = s.totalAppended - s.recovery.BytesReplayed
	if !s.recovery.CheckpointLoaded {
		s.ckptAppended = 0
	}
	return nil
}

// applyToIndex applies one replayed op to the index (no live accounting —
// that is rebuilt wholesale after replay).
func (s *Store) applyToIndex(op scanOp, seg uint32) {
	s.recovery.OpsReplayed++
	if op.del {
		delete(s.index, op.key)
		return
	}
	s.index[op.key] = loc{seg: seg, voff: op.valOff, vlen: op.valLen}
}

// createSegmentLocked creates segment id and makes it active. Callers
// hold the write path (recovery is single-threaded; runtime rotation holds
// wmu and mu).
func (s *Store) createSegmentLocked(id uint32) error {
	path := filepath.Join(s.dir, segmentName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if s.opts.Sync {
		if err := syncDirObserved(s.dir, s.counters); err != nil {
			_ = f.Close()
			return err
		}
	}
	seg := &segment{id: id, f: f}
	s.segs[id] = seg
	s.active = seg
	return nil
}

// --- Store interface --------------------------------------------------

// Get implements stable.Store: an index lookup plus one pread from the
// owning segment. The read races benignly with compaction deleting the
// segment; a read from a closed file is retried against the fresh index
// (the compactor republishes the key's location before closing the file).
func (s *Store) Get(key string) ([]byte, bool, error) {
	for {
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return nil, false, stable.ErrClosed
		}
		l, ok := s.index[key]
		var f *os.File
		if ok {
			f = s.segs[l.seg].f
		}
		s.mu.RUnlock()
		if !ok {
			return nil, false, nil
		}
		buf := make([]byte, l.vlen)
		if _, err := f.ReadAt(buf, l.voff); err != nil && l.vlen > 0 {
			if errors.Is(err, os.ErrClosed) {
				continue // compacted under us; the index has the new home
			}
			return nil, false, fmt.Errorf("wal: get %q: %w", key, err)
		}
		return buf, true, nil
	}
}

// Keys implements stable.Store.
func (s *Store) Keys(prefix string) ([]string, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, stable.ErrClosed
	}
	keys := make([]string, 0, 16)
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}

// Apply implements stable.Store with group commit (see
// stable.GroupCommit): every batch queued when a leader takes over is
// appended as one record + one fsync.
func (s *Store) Apply(batch ...stable.Op) error { return s.group.Apply(batch) }

// commitGroup durably appends the concatenated ops of one group as a
// single record and publishes them in the index.
func (s *Store) commitGroup(ops []stable.Op) error {
	if len(ops) == 0 {
		return nil
	}
	if err := s.append(ops, false); err != nil {
		return err
	}
	s.groupCommits.Add(1)
	var bytes int64
	for _, op := range ops {
		bytes += int64(len(op.Value))
	}
	s.counters.IncStableWrite(bytes)
	s.maybeKickMaintenance()
	return nil
}

// append writes one record holding ops to the active segment (rotating
// first if it is full), fsyncs it when the store is in Sync mode, and
// publishes the new locations in the index. rewrite marks compactor
// rewrites: each op is kept only if its key still lives at the expected
// origLocs entry (a concurrent Apply may have overwritten or deleted it).
// The filter runs under wmu *before* the record is written — the index
// only changes under wmu, so a dropped op can never reach the log. That
// ordering is what makes recovery's blind last-writer-wins replay
// correct: a rewrite record on disk holds only values that were current
// when it was appended, so anything newer sits later in the log.
func (s *Store) append(ops []stable.Op, rewrite bool, origLocs ...loc) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()

	if rewrite {
		s.mu.RLock()
		kept := ops[:0]
		for i, op := range ops {
			if cur, ok := s.index[op.Key]; ok && cur == origLocs[i] {
				kept = append(kept, op)
			}
		}
		s.mu.RUnlock()
		ops = kept
		if len(ops) == 0 {
			return nil
		}
	}

	rb, valOffs, err := encodeRecord(ops)
	if err != nil {
		return err
	}
	defer payloadPool.Put(rb)

	s.mu.RLock()
	closed := s.closed
	active := s.active
	base := active.size
	s.mu.RUnlock()
	if closed {
		return stable.ErrClosed
	}

	// Rotate when the record does not fit (an oversized record still gets
	// a fresh segment to itself, so segments stay near SegmentSize).
	if base > 0 && base+int64(len(rb.b)) > s.opts.SegmentSize {
		if err := s.rotate(active); err != nil {
			return err
		}
		s.mu.RLock()
		active = s.active
		base = active.size
		s.mu.RUnlock()
	}

	if _, err := active.f.WriteAt(rb.b, base); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if s.opts.Sync {
		if err := timedSync(active.f.Sync, s.counters); err != nil {
			return fmt.Errorf("wal: sync segment: %w", err)
		}
	}

	// Publish: index updates and tail advance, in log order (wmu held).
	s.mu.Lock()
	for i, op := range ops {
		if old, ok := s.index[op.Key]; ok {
			if seg := s.segs[old.seg]; seg != nil {
				seg.live -= old.vlen + int64(len(op.Key))
			}
		}
		if op.Value == nil {
			delete(s.index, op.Key)
			continue
		}
		l := loc{seg: active.id, voff: base + int64(valOffs[i]), vlen: int64(len(op.Value))}
		s.index[op.Key] = l
		active.live += l.vlen + int64(len(op.Key))
	}
	active.size = base + int64(len(rb.b))
	s.totalAppended += int64(len(rb.b))
	s.mu.Unlock()
	return nil
}

// rotate seals the active segment and starts the next one. Caller holds
// wmu.
func (s *Store) rotate(active *segment) error {
	if s.opts.Sync {
		if err := timedSync(active.f.Sync, s.counters); err != nil {
			return fmt.Errorf("wal: seal segment: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.createSegmentLocked(active.id + 1); err != nil {
		return err
	}
	s.counters.IncWALRotation()
	return nil
}

// Close stops background maintenance and closes all segment files. Apply
// is durable on return, so Close performs no extra flush; operations
// after Close return stable.ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopCh)
	s.wg.Wait()
	// wmu first: an in-flight group leader or compactor rewrite that
	// passed its closed-check must finish its WriteAt/Sync on open files;
	// later writers see closed under wmu and bail with ErrClosed.
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for _, seg := range s.segs {
		if cerr := seg.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// --- maintenance ------------------------------------------------------

func (s *Store) maybeKickMaintenance() {
	if s.opts.NoBackground {
		return
	}
	s.mu.RLock()
	due := s.opts.CheckpointEvery > 0 && s.totalAppended-s.ckptAppended >= s.opts.CheckpointEvery
	if !due && s.opts.CompactFraction > 0 {
		due = s.compactableLocked() != nil
	}
	s.mu.RUnlock()
	if due {
		select {
		case s.maintCh <- struct{}{}:
		default:
		}
	}
}

// maintain is the background goroutine: checkpoint when enough bytes were
// appended, then compact what the checkpoint newly covers.
func (s *Store) maintain() {
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.maintCh:
		}
		s.mu.RLock()
		ckptDue := s.opts.CheckpointEvery > 0 && s.totalAppended-s.ckptAppended >= s.opts.CheckpointEvery
		s.mu.RUnlock()
		if ckptDue {
			if err := s.Checkpoint(); err != nil {
				continue // transient I/O trouble; retry on the next kick
			}
		}
		if s.opts.CompactFraction > 0 {
			_ = s.Compact()
		}
	}
}

// Checkpoint persists the current index snapshot and replay position.
// Recovery after a checkpoint replays only records appended after it.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return stable.ErrClosed
	}
	pos := ckptPos{seg: s.active.id, off: s.active.size}
	activeF := s.active.f
	appended := s.totalAppended
	idx := make(map[string]loc, len(s.index))
	for k, l := range s.index {
		idx[k] = l
	}
	s.mu.RUnlock()

	// The checkpoint's position claims everything before it is durable;
	// make it so even in no-Sync mode (rare call, bounded cost).
	if err := timedSync(activeF.Sync, s.counters); err != nil {
		return fmt.Errorf("wal: sync before checkpoint: %w", err)
	}
	if err := writeCheckpoint(s.dir, pos, idx, s.counters); err != nil {
		return err
	}
	s.mu.Lock()
	if pos.seg > s.ckpt.seg || (pos.seg == s.ckpt.seg && pos.off > s.ckpt.off) {
		s.ckpt = pos
		s.ckptAppended = appended
	}
	s.mu.Unlock()
	s.counters.IncWALCheckpoint()
	return nil
}

// compactableLocked returns a sealed, checkpoint-covered segment whose
// garbage fraction exceeds the threshold (or nil). Caller holds mu.
func (s *Store) compactableLocked() *segment {
	for id, seg := range s.segs {
		if id >= s.ckpt.seg || seg == s.active || seg.size == 0 {
			continue
		}
		garbage := seg.size - seg.live
		if seg.live == 0 || float64(garbage) >= float64(seg.size)*s.opts.CompactFraction {
			return seg
		}
	}
	return nil
}

// Compact rewrites the live records of every eligible cold segment into
// the log tail, re-checkpoints (so no persisted state references the old
// segments), and deletes them. Eligible: sealed, fully covered by the
// last checkpoint, garbage fraction over Options.CompactFraction.
// Returns the number of segments reclaimed.
func (s *Store) Compact() error {
	for {
		s.mu.RLock()
		seg := s.compactableLocked()
		s.mu.RUnlock()
		if seg == nil {
			return nil
		}
		if err := s.compactSegment(seg); err != nil {
			return err
		}
	}
}

// compactSegment moves one segment's live data to the tail and deletes
// the file.
func (s *Store) compactSegment(seg *segment) error {
	// Collect the keys currently homed in this segment.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return stable.ErrClosed
	}
	var keys []string
	var locs []loc
	for k, l := range s.index {
		if l.seg == seg.id {
			keys = append(keys, k)
			locs = append(locs, l)
		}
	}
	size := seg.size
	live := seg.live
	s.mu.RUnlock()

	// Rewrite in bounded chunks: read each value (locations are stable —
	// only this compactor deletes segments, and overwrites never reuse
	// space), then append with per-op re-verification.
	const chunkBytes = 1 << 20
	var ops []stable.Op
	var origs []loc
	var chunk int64
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		if err := s.append(ops, true, origs...); err != nil {
			return err
		}
		ops, origs, chunk = ops[:0], origs[:0], 0
		return nil
	}
	for i, k := range keys {
		l := locs[i]
		buf := make([]byte, l.vlen)
		if _, err := seg.f.ReadAt(buf, l.voff); err != nil && l.vlen > 0 {
			return fmt.Errorf("wal: compact read %q: %w", k, err)
		}
		ops = append(ops, stable.Put(k, buf))
		origs = append(origs, l)
		chunk += l.vlen
		if chunk >= chunkBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	// Persist an index that no longer references the segment, then drop
	// it. A crash in between leaves an unreferenced file that open-time
	// GC removes.
	if err := s.Checkpoint(); err != nil {
		return err
	}
	s.mu.Lock()
	if seg.live != 0 {
		// New references appeared only if append republished into it —
		// impossible (appends go to the tail) — or accounting drifted;
		// leave the segment for the next pass rather than losing data.
		s.mu.Unlock()
		return fmt.Errorf("wal: segment %d still has %d live bytes after rewrite", seg.id, seg.live)
	}
	delete(s.segs, seg.id)
	s.mu.Unlock()
	_ = seg.f.Close()
	if err := os.Remove(seg.path(s.dir)); err != nil && !os.IsNotExist(err) {
		return err
	}
	s.counters.IncWALCompaction(size - live)
	return nil
}
