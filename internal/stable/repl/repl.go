package repl

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/stable"
)

// metaKey persists the shard's replication position (epoch, LSN) inside
// the underlying store, atomically with every replicated batch. The NUL
// prefix keeps it out of every application namespace; the Reader side of
// the wrapper hides it.
const metaKey = "\x00repl"

func metaOp(epoch, lsn uint64) stable.Op {
	v := make([]byte, 16)
	binary.BigEndian.PutUint64(v[0:8], epoch)
	binary.BigEndian.PutUint64(v[8:16], lsn)
	return stable.Put(metaKey, v)
}

// ReadMeta returns the replication position persisted in a store: the
// epoch and LSN of the last batch it durably holds. A store never
// written through the replication layer reports (0, 0). The cluster's
// failover uses it to pick the most caught-up replica.
func ReadMeta(s stable.Reader) (epoch, lsn uint64, err error) {
	v, ok, err := s.Get(metaKey)
	if err != nil || !ok {
		return 0, 0, err
	}
	if len(v) != 16 {
		return 0, 0, fmt.Errorf("repl: corrupt meta record (%d bytes)", len(v))
	}
	return binary.BigEndian.Uint64(v[0:8]), binary.BigEndian.Uint64(v[8:16]), nil
}

// SendFunc transmits one replication frame to a replication endpoint.
// Errors are the transport's problem: the resend loop retries until the
// follower acknowledges.
type SendFunc func(to, kind string, payload []byte)

// Options configures the primary side of one replicated shard.
type Options struct {
	// Shard is the owning node's name.
	Shard string
	// Followers are the nodes holding replicas of this shard.
	Followers []string
	// Acks is the number of *follower* acknowledgements an Apply must
	// collect before returning (stable.ReplSpec.FollowerAcks). 0 ships
	// asynchronously.
	Acks int
	// Retain bounds the record tail kept in memory for resends; a
	// follower further behind catches up by snapshot. Default 256.
	Retain int
	// ResendEvery is the lag-repair cadence. Default 25ms.
	ResendEvery time.Duration
	// Clock drives the resend loop; nil uses the wall clock.
	Clock network.Clock
	// Promote bumps the persisted epoch at open: a different physical
	// copy (a promoted follower replica) is becoming the authoritative
	// one, and records it writes must not be confused with same-LSN
	// records of the previous authority.
	Promote bool
	// Counters receives replication instrumentation; nil = off, methods
	// are nil-safe (as trace.Tracer).
	Counters *metrics.Counters
}

type waiter struct {
	lsn uint64
	ch  chan struct{}
}

// Store is the primary side of a replicated shard: a stable.Store
// wrapper that assigns every committed batch an LSN (persisted with the
// batch), streams it to the followers, and optionally blocks Apply until
// a quorum of copies holds it. It implements the stable.Replicated and
// stable.Reopener capabilities.
type Store struct {
	inner     stable.Store
	shard     string
	followers []string
	need      int
	retain    int
	every     time.Duration
	clock     network.Clock
	counters  *metrics.Counters

	// mu guards all replication state below and is held across
	// inner.Apply in the commit path, so snapshots observe a consistent
	// (state, LSN) pair.
	mu         sync.Mutex
	epoch      uint64
	lsn        uint64
	tail       [][]byte // encoded KindAppend frames, tailStart..lsn
	tailStart  uint64   // LSN of tail[0]; 0 when tail is empty
	acked      map[string]uint64
	ackedEpoch map[string]uint64
	waiters    []waiter
	send       SendFunc
	closed     bool

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	// group commit: concurrent Apply calls elect a leader that commits,
	// ships and (in quorum mode) awaits acks for the whole group as one
	// record, mirroring the WAL engine's group commit underneath.
	group *stable.GroupCommit
}

var (
	_ stable.Replicated = (*Store)(nil)
	_ stable.Reopener   = (*Store)(nil)
)

// Wrap makes inner the authoritative copy of opts.Shard and returns the
// replicating wrapper. The position persisted in inner is resumed; with
// opts.Promote the epoch is bumped and durably re-persisted first.
func Wrap(inner stable.Store, opts Options) (*Store, error) {
	if opts.Shard == "" {
		return nil, fmt.Errorf("repl: Options.Shard is required")
	}
	if strings.Contains(opts.Shard, "!") {
		return nil, fmt.Errorf("repl: shard name %q must not contain '!'", opts.Shard)
	}
	epoch, lsn, err := ReadMeta(inner)
	if err != nil {
		return nil, err
	}
	if opts.Promote {
		epoch++
		if err := inner.Apply(metaOp(epoch, lsn)); err != nil {
			return nil, err
		}
	}
	if opts.Retain == 0 {
		opts.Retain = 256
	}
	if opts.ResendEvery == 0 {
		opts.ResendEvery = 25 * time.Millisecond
	}
	if opts.Clock == nil {
		opts.Clock = network.WallClock()
	}
	if opts.Acks > len(opts.Followers) {
		opts.Acks = len(opts.Followers)
	}
	s := &Store{
		inner:      inner,
		shard:      opts.Shard,
		followers:  append([]string(nil), opts.Followers...),
		need:       opts.Acks,
		retain:     opts.Retain,
		every:      opts.ResendEvery,
		clock:      opts.Clock,
		counters:   opts.Counters,
		epoch:      epoch,
		lsn:        lsn,
		acked:      make(map[string]uint64),
		ackedEpoch: make(map[string]uint64),
		stop:       make(chan struct{}),
	}
	s.group = stable.NewGroupCommit(s.commitGroup)
	s.wg.Add(1)
	go s.resendLoop()
	return s, nil
}

// Shard returns the owning node's name.
func (s *Store) Shard() string { return s.shard }

// Followers returns the configured follower set.
func (s *Store) Followers() []string { return append([]string(nil), s.followers...) }

// Bind connects the primary to its transport. Until bound (and while
// unbound after a simulated crash), commits still apply locally and are
// retained for the resend loop to ship once a transport returns.
func (s *Store) Bind(send SendFunc) {
	s.mu.Lock()
	s.send = send
	s.mu.Unlock()
}

// Unbind detaches the transport and releases every Apply blocked on a
// quorum wait. Callers must detach the node from the network *first*:
// a released Apply's caller may still run briefly, and the network being
// down is what guarantees it cannot externalize an under-replicated
// commit (the commit itself is durable locally and ships on recovery).
func (s *Store) Unbind() {
	s.mu.Lock()
	s.send = nil
	s.releaseWaitersLocked()
	s.mu.Unlock()
}

func (s *Store) releaseWaitersLocked() {
	for _, w := range s.waiters {
		close(w.ch)
	}
	s.waiters = nil
}

// Get hides the replication meta record and delegates to the inner
// engine.
func (s *Store) Get(key string) ([]byte, bool, error) {
	if key == metaKey {
		return nil, false, nil
	}
	return s.inner.Get(key)
}

// Keys hides the replication meta record and delegates to the inner
// engine.
func (s *Store) Keys(prefix string) ([]string, error) {
	keys, err := s.inner.Keys(prefix)
	if err != nil {
		return nil, err
	}
	out := keys[:0]
	for _, k := range keys {
		if k != metaKey {
			out = append(out, k)
		}
	}
	return out, nil
}

// Apply commits the batch locally, ships it to the followers, and in
// quorum mode blocks until enough copies acknowledged. Concurrent
// appliers are group-committed.
func (s *Store) Apply(batch ...stable.Op) error { return s.group.Apply(batch) }

func (s *Store) commitGroup(ops []stable.Op) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return stable.ErrClosed
	}
	epoch, next := s.epoch, s.lsn+1
	full := make([]stable.Op, 0, len(ops)+1)
	full = append(full, ops...)
	full = append(full, metaOp(epoch, next))
	if err := s.inner.Apply(full...); err != nil {
		s.mu.Unlock()
		return err
	}
	s.lsn = next
	frame := EncodeRecord(Record{Shard: s.shard, Epoch: epoch, LSN: next, Ops: ops})
	if s.tailStart == 0 {
		s.tailStart = next
	}
	s.tail = append(s.tail, frame)
	if len(s.tail) > s.retain {
		drop := len(s.tail) - s.retain
		s.tail = append([][]byte(nil), s.tail[drop:]...)
		s.tailStart += uint64(drop)
	}
	send := s.send
	s.mu.Unlock()

	if send != nil {
		if len(s.followers) > 0 {
			s.counters.IncReplBatch()
		}
		for _, f := range s.followers {
			send(Endpoint(f), KindAppend, frame)
		}
	}
	if s.need > 0 {
		s.waitAcked(next)
	}
	return nil
}

// waitAcked blocks until need followers acknowledged lsn in the current
// epoch, or until the store is unbound/closed (see Unbind for why the
// release is safe).
func (s *Store) waitAcked(lsn uint64) {
	s.mu.Lock()
	if s.closed || s.send == nil || s.countAckedLocked(lsn) >= s.need {
		s.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	s.waiters = append(s.waiters, waiter{lsn: lsn, ch: ch})
	s.mu.Unlock()
	<-ch
}

func (s *Store) countAckedLocked(lsn uint64) int {
	n := 0
	for _, f := range s.followers {
		if s.ackedEpoch[f] == s.epoch && s.acked[f] >= lsn {
			n++
		}
	}
	return n
}

// HandleAck records a follower's cumulative durable position and wakes
// the Apply calls it satisfies. Acks are follower-authoritative: a
// restarted follower may legitimately report a *lower* position than
// before, which re-arms the resend loop.
func (s *Store) HandleAck(follower string, ack Ack) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ack.Shard != s.shard {
		return
	}
	s.counters.IncReplAck()
	s.acked[follower] = ack.LSN
	s.ackedEpoch[follower] = ack.Epoch
	if len(s.waiters) == 0 {
		return
	}
	keep := s.waiters[:0]
	for _, w := range s.waiters {
		if s.countAckedLocked(w.lsn) >= s.need {
			close(w.ch)
			continue
		}
		keep = append(keep, w)
	}
	s.waiters = keep
}

// ResetFollower forgets a follower's acknowledged position. The cluster
// calls it when the follower's machine is rebuilt from scratch (a
// permanent kill): the old ack state describes a disk that no longer
// exists, and keeping it would both stop the resend loop from ever
// re-replicating onto the reborn node and let a later failover promote
// a copy the primary wrongly believes is caught up.
func (s *Store) ResetFollower(name string) {
	s.mu.Lock()
	delete(s.acked, name)
	delete(s.ackedEpoch, name)
	s.mu.Unlock()
}

// ReplStatus implements the stable.Replicated capability.
func (s *Store) ReplStatus() stable.ReplStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := stable.ReplStatus{Epoch: s.epoch, LSN: s.lsn, Acked: make(map[string]uint64, len(s.followers))}
	for _, f := range s.followers {
		if s.ackedEpoch[f] == s.epoch {
			st.Acked[f] = s.acked[f]
		} else {
			st.Acked[f] = 0
		}
	}
	return st
}

// Sync runs one synchronous lag-repair pass (what the resend loop does
// on its cadence): every follower behind the log receives either the
// missing tail records or, past the retained tail or across an epoch
// change, a full snapshot.
func (s *Store) Sync() {
	type out struct {
		to, kind string
		payload  []byte
	}
	s.mu.Lock()
	send := s.send
	if send == nil || s.closed {
		s.mu.Unlock()
		return
	}
	var outs []out
	var snap []byte // built at most once per pass
	for _, f := range s.followers {
		aEpoch, a := s.ackedEpoch[f], s.acked[f]
		if aEpoch == s.epoch && a >= s.lsn {
			continue
		}
		if aEpoch == s.epoch && s.tailStart != 0 && a+1 >= s.tailStart {
			const burst = 64
			for l := a + 1; l <= s.lsn && l < a+1+burst; l++ {
				outs = append(outs, out{Endpoint(f), KindAppend, s.tail[l-s.tailStart]})
			}
			continue
		}
		if snap == nil {
			var err error
			if snap, err = s.encodeSnapshotLocked(); err != nil {
				continue
			}
		}
		s.counters.IncReplSnapshot()
		outs = append(outs, out{Endpoint(f), KindSnapshot, snap})
	}
	s.mu.Unlock()
	for _, o := range outs {
		send(o.to, o.kind, o.payload)
	}
}

// encodeSnapshotLocked dumps the full inner state at the current
// position. The caller holds s.mu, which also serializes commits, so the
// dump is consistent with (epoch, lsn).
func (s *Store) encodeSnapshotLocked() ([]byte, error) {
	keys, err := s.inner.Keys("")
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	snap := Snapshot{Shard: s.shard, Epoch: s.epoch, LSN: s.lsn}
	for _, k := range keys {
		if k == metaKey {
			continue
		}
		v, ok, err := s.inner.Get(k)
		if err != nil {
			return nil, err
		}
		if ok {
			snap.Ops = append(snap.Ops, stable.Put(k, v))
		}
	}
	return EncodeSnapshot(snap), nil
}

func (s *Store) resendLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.clock.After(s.every):
			s.Sync()
		}
	}
}

// Close stops replication, releases blocked Apply calls and closes the
// inner engine if it holds a handle.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.send = nil
	s.releaseWaitersLocked()
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	return stable.Close(s.inner)
}
