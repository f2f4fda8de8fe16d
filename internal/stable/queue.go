package stable

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/wire"
)

// Queue is the agent input queue of one node (§2 of the paper): a FIFO of
// opaque agent containers on stable storage. The key listing alone names
// every entry's agent, and the values are the containers as handed in:
//
//	<prefix>seq                     next sequence number (decimal)
//	<prefix>e/<16-digit seq>/<ID>   entry: the bare container
//	<prefix>s/<txn>                 marker of a prepared insertion: 0x90
//	                                0x21, then the seq and ID of the entry
//	                                it hides
//
// An entry without data is stored as an empty value (a nil Op.Value is a
// delete). It supports two write paths:
//
//   - Enqueue: direct, atomic insertion (used when an owner launches an
//     agent into the system).
//   - Prepare/CommitStaged/AbortStaged: two-phase insertion used by the
//     distributed step and compensation transactions. Prepare writes the
//     container once, at the entry key it will live under, and a marker
//     beside it in the same batch. An entry with a marker is durable but
//     hidden from every listing; committing deletes the marker, which
//     makes the entry visible at the queue position reserved at prepare
//     time, and aborting deletes both.
//
// A Queue is the only Queue over its prefix while it lives: the sequence
// counter, the set of hidden entries and the claims are read from the
// store once and kept in memory from then on. A fresh Queue over the same
// store (i.e. after a crash) rebuilds the hidden set from the markers, so
// a prepared entry is still in doubt and still invisible to it.
//
// Removal is exposed as a batch Op (RemoveOp) so the destructive read of an
// agent at the start of a step transaction commits atomically with the rest
// of the transaction: if the step aborts or the node crashes, the agent is
// still in the queue (§2, §4.3).
//
// For concurrent consumers the queue adds claim/lease semantics (Claim,
// Release): a claim marks an entry as taken by one worker without removing
// it. Claims are volatile — a fresh Queue over the same store (i.e. after a
// crash) starts with no claims, so recovery sees every unprocessed entry
// exactly as the serial runtime does, preserving §4.3's "the agent still
// resides in the input queue" invariant.
type Queue struct {
	store  Store
	prefix string

	mu     sync.Mutex
	notify chan struct{}

	// Volatile claims: the claimed store keys, plus a per-agent count so
	// Claim can preserve per-agent FIFO order (a younger entry for an
	// agent is never handed out while an older one is claimed).
	claimed    map[string]bool
	claimedIDs map[string]int

	// view caches the sorted visible-key listing for the claim scan.
	// Every visibility transition invalidates it through signal(): queue
	// methods (Enqueue, CommitStaged) signal directly, and the external
	// paths — EnqueueOps/RemoveOp batches committed by a worker's
	// transaction — are always followed by the worker's Release, which
	// signals. Until that Release the removed key is still in claimed
	// and the scan skips it, so a stale view never surfaces a dead
	// entry; as a second line of defense, a winner whose entry vanished
	// from the store refreshes the view and rescans instead of failing.
	view      []string
	viewValid bool

	// staged maps every prepared transaction to the entry key its marker
	// hides ("" for a marker that does not parse and so hides nothing),
	// hidden is the set of those keys. Both are loaded from the markers on
	// first use, like seq, and kept by Prepare/CommitStaged/AbortStaged.
	staged       map[string]string
	hidden       map[string]bool
	stagedLoaded bool

	// seq caches the next sequence number after the first read, so tail
	// reservations cost no store round-trip. The store copy is only read
	// again by a fresh Queue (i.e. after a crash/restart), and every
	// reservation persists seq+1 in the same batch as its entry, so the
	// cache and the store can never diverge observably.
	seq       uint64
	seqLoaded bool

	// fence, when set, withholds matching agents from the worker Claim
	// path. The membership rebalancer installs it while migrating agents
	// away (and the drain before a Leave fences everything), so workers
	// stop opening new step transactions on entries that are about to be
	// handed to another node. TryClaim bypasses the fence — it *is* the
	// rebalancer's path. Like claims, the fence is volatile.
	fence func(id string) bool
}

// Entry is one committed queue element.
type Entry struct {
	ID   string // application-level identifier (agent ID)
	Data []byte // opaque container bytes

	// Decoded is the consumer's slot for the decoded form of Data, so a
	// claim's hint pass and its execution share one decode. It lives and
	// dies with this claim's Entry; the queue never reads it.
	Decoded any

	key string // store key, used by RemoveOp
}

// Binary type bytes of the stable block 0x20..0x2f (registry in
// wire/binary.go); never reuse a value.
const (
	// typeStagedRecord is retired: the prepared insertion that carried
	// its container (seq, ID, then the container), last written and read
	// by commit e4fe5c0.
	typeStagedRecord = 0x20
	// typeStaged is the marker of a prepared insertion: seq and ID of
	// the entry it hides.
	typeStaged = 0x21
)

// NewQueue returns a queue stored under the given key prefix.
func NewQueue(store Store, prefix string) *Queue {
	return &Queue{
		store:      store,
		prefix:     prefix,
		notify:     make(chan struct{}),
		claimed:    make(map[string]bool),
		claimedIDs: make(map[string]int),
	}
}

// Notify returns a channel that is closed when the next entry becomes
// visible (or a claim is released) — a broadcast, so any number of waiting
// consumers wake. Grab the channel *before* checking the queue, then wait
// on it only if the check came up empty; that ordering cannot miss a
// wakeup. Each signal replaces the channel, so loop and re-grab.
func (q *Queue) Notify() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.notify
}

func (q *Queue) signal() {
	q.viewValid = false
	close(q.notify)
	q.notify = make(chan struct{})
}

// seqDigits is the zero-padded width of the sequence number in an entry
// key, so the lexicographic key order is the FIFO order.
const seqDigits = 16

func (q *Queue) seqKey() string { return q.prefix + "seq" }
func (q *Queue) entryKey(n uint64, id string) string {
	return fmt.Sprintf("%se/%0*d/%s", q.prefix, seqDigits, n, id)
}
func (q *Queue) stageKey(txn string) string {
	return q.prefix + "s/" + txn
}

// entryID returns the agent ID an entry key names: whatever follows the
// sequence number's slash (an ID may itself contain slashes). A key too
// short to name one — not written by this layout — yields "".
func (q *Queue) entryID(key string) string {
	if n := len(q.prefix) + len("e/") + seqDigits + 1; len(key) > n {
		return key[n:]
	}
	return ""
}

// putEntry returns the Op writing a committed entry. A nil Op.Value is a
// delete, so an entry without data is stored as an empty value.
func (q *Queue) putEntry(seq uint64, id string, data []byte) Op {
	if data == nil {
		data = []byte{}
	}
	return Put(q.entryKey(seq, id), data)
}

// appendStaged appends the marker of a prepared insertion to buf.
func appendStaged(buf []byte, seq uint64, id string) []byte {
	buf = append(buf, wire.BinaryVersion, typeStaged)
	return wire.AppendString(wire.AppendUvarint(buf, seq), id)
}

// parseStaged reads a prepared insertion's marker.
func parseStaged(raw []byte) (seq uint64, id string, err error) {
	b, err := wire.Body(raw, typeStaged)
	if err != nil {
		return 0, "", err
	}
	r := wire.NewReader(b)
	seq, id = r.Uvarint(), r.String()
	return seq, id, r.Done()
}

// IsRetiredStagedRecord reports whether raw, the value of a <prefix>s/ key,
// is a prepared insertion as commit e4fe5c0 and its predecessors back to
// PR 23 wrote it: type byte 0x20, the seq, the ID, then the container.
// This layout reads it as a marker that does not parse.
func IsRetiredStagedRecord(raw []byte) bool {
	b, err := wire.Body(raw, typeStagedRecord)
	if err != nil {
		return false
	}
	r := wire.NewReader(b)
	_, _ = r.Uvarint(), r.String() // the container is whatever follows
	return r.Err() == nil
}

// loadStaged reads the markers into staged and hidden, once per Queue.
// The caller must hold q.mu.
func (q *Queue) loadStaged() error {
	if q.stagedLoaded {
		return nil
	}
	keys, err := q.store.Keys(q.prefix + "s/")
	if err != nil {
		return err
	}
	staged, hidden := make(map[string]string, len(keys)), make(map[string]bool, len(keys))
	for _, k := range keys {
		raw, ok, err := q.store.Get(k)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		key := ""
		if seq, id, err := parseStaged(raw); err == nil {
			key = q.entryKey(seq, id)
			hidden[key] = true
		}
		staged[k[len(q.prefix)+2:]] = key
	}
	q.staged, q.hidden, q.stagedLoaded = staged, hidden, true
	return nil
}

// visibleKeys lists the entry keys no marker hides, in FIFO order. The
// caller must hold q.mu.
func (q *Queue) visibleKeys() ([]string, error) {
	if err := q.loadStaged(); err != nil {
		return nil, err
	}
	keys, err := q.store.Keys(q.prefix + "e/")
	if err != nil || len(q.hidden) == 0 {
		return keys, err
	}
	out := keys[:0]
	for _, k := range keys {
		if !q.hidden[k] {
			out = append(out, k)
		}
	}
	return out, nil
}

// nextSeq reserves the next sequence number and returns the op persisting
// the successor; the caller includes it in the batch that uses the number.
// The caller must hold q.mu. The counter is read from the store once and
// cached; a reservation whose batch never commits burns the number, which
// only leaves a harmless gap in the ordering.
func (q *Queue) nextSeq() (uint64, Op, error) {
	if !q.seqLoaded {
		raw, ok, err := q.store.Get(q.seqKey())
		if err != nil {
			return 0, Op{}, err
		}
		if ok {
			n, err := strconv.ParseUint(string(raw), 10, 64)
			if err != nil {
				return 0, Op{}, fmt.Errorf("stable: corrupt queue seq: %w", err)
			}
			q.seq = n
		}
		q.seqLoaded = true
	}
	n := q.seq
	q.seq = n + 1
	return n, Put(q.seqKey(), []byte(strconv.FormatUint(n+1, 10))), nil
}

// Enqueue atomically inserts a committed entry at the tail.
func (q *Queue) Enqueue(id string, data []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	seq, seqOp, err := q.nextSeq()
	if err != nil {
		return err
	}
	if err := q.store.Apply(seqOp, q.putEntry(seq, id, data)); err != nil {
		return err
	}
	q.signal()
	return nil
}

// EnqueueOps reserves a tail position immediately (the sequence number is
// burnt even if the surrounding transaction aborts) and returns the batch
// Ops that make the entry visible; include them in the transaction's
// commit batch. This is how a step transaction atomically re-enqueues an
// agent on the *same* node without two-phase commit.
func (q *Queue) EnqueueOps(id string, data []byte) ([]Op, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	seq, seqOp, err := q.nextSeq()
	if err != nil {
		return nil, err
	}
	if err := q.store.Apply(seqOp); err != nil {
		return nil, err
	}
	return []Op{q.putEntry(seq, id, data)}, nil
}

// Prepare stages an insertion under txnID: the entry is written where it
// will live, hidden behind a marker until CommitStaged. Prepare is
// idempotent per txnID.
func (q *Queue) Prepare(txnID, id string, data []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.loadStaged(); err != nil {
		return err
	}
	if _, ok := q.staged[txnID]; ok {
		return nil // already prepared (coordinator retry)
	}
	seq, seqOp, err := q.nextSeq()
	if err != nil {
		return err
	}
	entry := q.putEntry(seq, id, data)
	marker := Put(q.stageKey(txnID), appendStaged(make([]byte, 0, 12+len(id)), seq, id))
	if err := q.store.Apply(seqOp, entry, marker); err != nil {
		return err
	}
	q.staged[txnID] = entry.Key
	q.hidden[entry.Key] = true
	return nil
}

// CommitStaged makes the entry staged under txnID visible by deleting its
// marker; the container is neither read nor written. It is idempotent:
// committing an unknown txnID is a no-op (already committed).
func (q *Queue) CommitStaged(txnID string) error {
	return q.settleStaged(txnID, true)
}

// AbortStaged discards the entry staged under txnID, marker and entry in
// one batch. Idempotent: an unknown txnID (already settled either way) is
// a no-op that leaves a committed entry alone.
func (q *Queue) AbortStaged(txnID string) error {
	return q.settleStaged(txnID, false)
}

func (q *Queue) settleStaged(txnID string, commit bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.loadStaged(); err != nil {
		return err
	}
	key, ok := q.staged[txnID]
	if !ok {
		return nil
	}
	ops := []Op{Del(q.stageKey(txnID))}
	if !commit && key != "" {
		ops = append(ops, Del(key))
	}
	if err := q.store.Apply(ops...); err != nil {
		return err
	}
	delete(q.staged, txnID)
	delete(q.hidden, key)
	if commit {
		q.signal()
	}
	return nil
}

// StagedTxns returns the transaction IDs with prepared entries; used by
// crash recovery to resolve in-doubt transactions with the coordinator.
func (q *Queue) StagedTxns() ([]string, error) {
	keys, err := q.store.Keys(q.prefix + "s/")
	if err != nil {
		return nil, err
	}
	txns := make([]string, len(keys))
	for i, k := range keys {
		txns[i] = k[len(q.prefix)+2:]
	}
	return txns, nil
}

// Each calls fn with the store key, agent ID and container bytes of every
// entry, visible or still hidden behind a marker, stopping at fn's first
// error. A record this layout did not write — an entry key that names no
// agent, a <prefix>s/ value that is no marker — is passed on with an empty
// ID and its raw value, so a start-up check can tell a queue written by an
// older runtime from an empty one.
func (q *Queue) Each(fn func(key, id string, data []byte) error) error {
	for _, sub := range []string{"e/", "s/"} {
		keys, err := q.store.Keys(q.prefix + sub)
		if err != nil {
			return err
		}
		for _, k := range keys {
			data, ok, err := q.store.Get(k)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			id := ""
			if sub == "e/" {
				id = q.entryID(k)
			} else if _, _, err := parseStaged(data); err == nil {
				continue // a marker: its container is the entry it names
			}
			if err := fn(k, id, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// Peek returns the oldest visible entry, or nil if the queue is empty.
func (q *Queue) Peek() (*Entry, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	keys, err := q.visibleKeys()
	if err != nil || len(keys) == 0 {
		return nil, err
	}
	return q.readEntry(keys[0])
}

// Claim returns the oldest visible entry that is not claimed and whose
// agent has no claimed entry (per-agent FIFO: while one worker holds an
// agent's oldest entry, younger entries of the same agent are withheld).
// skip, if non-nil, lets the caller veto agents (e.g. retry back-off); a
// vetoed agent's entries stay unclaimed. Returns a nil entry when nothing
// is claimable; depth is the number of visible entries observed by the
// scan (a free queue-depth sample for the caller's metrics). The claim is
// volatile: it is not persisted, and a fresh Queue over the same store
// starts unclaimed.
//
// Cost: entries passed over (claimed, withheld behind an in-flight agent,
// vetoed) are judged from their keys — no store reads — so the per-claim
// cost stays flat as the queue deepens with in-flight agents; exactly one
// store read fetches the winning entry.
func (q *Queue) Claim(skip func(id string) bool) (e *Entry, depth int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	// One retry: a fresh view resolves the benign vanished-entry race
	// (removal committed, Release pending); a vanish that survives a
	// fresh listing is real corruption and propagates.
	for attempt := 0; ; attempt++ {
		e, depth, err = q.claimScan(skip)
		if errors.Is(err, errEntryVanished) && attempt == 0 {
			q.viewValid = false
			continue
		}
		return e, depth, err
	}
}

// claimScan is one pass of the claim scan over the (possibly cached)
// visible-key view. Caller holds q.mu.
func (q *Queue) claimScan(skip func(id string) bool) (e *Entry, depth int, err error) {
	if !q.viewValid {
		keys, err := q.visibleKeys()
		if err != nil {
			return nil, 0, err
		}
		q.view = keys
		q.viewValid = true
	}
	depth = len(q.view)
	for _, k := range q.view {
		if q.claimed[k] {
			continue
		}
		id := q.entryID(k)
		if q.claimedIDs[id] > 0 {
			continue // an older entry of this agent is in flight
		}
		if skip != nil && skip(id) {
			continue
		}
		if q.fence != nil && q.fence(id) {
			continue // withheld for migration (see SetFence)
		}
		if e, err = q.readEntry(k); err != nil {
			return nil, depth, err
		}
		q.claimed[k] = true
		q.claimedIDs[id]++
		return e, depth, nil
	}
	return nil, depth, nil
}

// errEntryVanished marks a listed entry missing from the store: benign
// when the listing was cached (refresh and rescan), corruption when not.
var errEntryVanished = errors.New("stable: queue entry vanished")

// readEntry fetches one committed entry: the ID from the key, the data
// from the one store read.
func (q *Queue) readEntry(key string) (*Entry, error) {
	data, ok, err := q.store.Get(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", errEntryVanished, key)
	}
	return &Entry{ID: q.entryID(key), Data: data, key: key}, nil
}

// Release drops the claim on e. Call it after the entry was durably
// removed (the claim bookkeeping is discarded) or when the worker gives
// the entry up for another consumer (the entry becomes claimable again,
// and blocked consumers are woken).
func (q *Queue) Release(e *Entry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.claimed[e.key] {
		return
	}
	delete(q.claimed, e.key)
	id := q.entryID(e.key)
	if q.claimedIDs[id] <= 1 {
		delete(q.claimedIDs, id)
	} else {
		q.claimedIDs[id]--
	}
	q.signal()
}

// Claimed returns the number of currently claimed entries.
func (q *Queue) Claimed() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.claimed)
}

// SetFence installs (or, with nil, removes) the claim fence: Claim passes
// over entries whose agent ID f reports as fenced, exactly as if they were
// claimed by someone else. Fenced entries stay visible, keep their FIFO
// position and still count toward Len — only the worker hand-out path is
// gated. A fence change wakes blocked consumers so a lifted fence is
// noticed without a new enqueue.
func (q *Queue) SetFence(f func(id string) bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.fence = f
	q.signal()
}

// Entries returns the visible entries in FIFO order, including claimed
// and fenced ones — the rebalancer's sweep listing. Entries that vanish
// between the key listing and the read (a removal committing under a
// released claim) are skipped rather than reported as corruption.
func (q *Queue) Entries() ([]*Entry, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	keys, err := q.visibleKeys()
	if err != nil {
		return nil, err
	}
	out := make([]*Entry, 0, len(keys))
	for _, k := range keys {
		e, err := q.readEntry(k)
		if errors.Is(err, errEntryVanished) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// TryClaim claims the specific entry e (by queue position), bypassing the
// fence — the migration path's targeted claim. It fails (ok=false) when
// the entry is claimed, when its agent has another entry in flight, when
// the entry is no longer in the store (consumed since the listing), or
// when a marker hides it (the key of a prepared insertion, not a listing's).
// On success it returns the entry re-read from the store, so the caller
// migrates the current container bytes, never a stale listing's.
func (q *Queue) TryClaim(e *Entry) (*Entry, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.loadStaged(); err != nil {
		return nil, false, err
	}
	if q.claimed[e.key] || q.hidden[e.key] {
		return nil, false, nil
	}
	if q.claimedIDs[q.entryID(e.key)] > 0 {
		return nil, false, nil // an older entry of this agent is in flight
	}
	fresh, err := q.readEntry(e.key)
	if errors.Is(err, errEntryVanished) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	q.claimed[e.key] = true
	q.claimedIDs[fresh.ID]++
	return fresh, true, nil
}

// RemoveOp returns the batch Op deleting e; include it in the commit batch
// of the transaction that consumed the entry.
func (q *Queue) RemoveOp(e *Entry) Op { return Del(e.key) }

// Len returns the number of visible entries.
func (q *Queue) Len() (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	keys, err := q.visibleKeys()
	return len(keys), err
}
