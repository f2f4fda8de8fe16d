package stable

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/wire"
)

// Queue is the agent input queue of one node (§2 of the paper): a FIFO of
// opaque agent containers on stable storage. The key listing alone names
// every entry's agent, and the values are the containers as handed in:
//
//	<prefix>seq                     next sequence number (decimal)
//	<prefix>e/<16-digit seq>/<ID>   entry: the bare container
//
// An entry without data is stored as an empty value (a nil Op.Value is a
// delete). It supports two write paths:
//
//   - Enqueue: direct, atomic insertion, optionally with extra ops in the
//     same batch. An owner launches an agent this way, and the node that
//     receives a container in a hand-off writes it and its commit record
//     in one batch: that node decides the step transaction, so there is
//     no prepared, hidden insertion (DESIGN.md §5).
//   - EnqueueIn: insertion that lands when a caller's transaction
//     commits (a step handing its agent to the next step on this node).
//
// The <prefix>s/<txn> markers that hid prepared insertions until commit
// 6471191 are not read; node.New refuses a store that holds one.
//
// A Queue is the only Queue over its prefix while it lives: the sequence
// counter, the order and the claims are read from the store once and
// kept in memory from then on. A fresh Queue over the same store (i.e.
// after a crash) rebuilds them from the keys.
//
// The order is an index: the entry keys, ascending, which is FIFO order.
// It is loaded with one Keys listing and from then on kept by the
// queue's own mutators — Enqueue, Remove — and, for writes that land
// with a caller's transaction (EnqueueIn, RemoveIn), by a hook the
// transaction runs once its commit batch is applied (Tx.OnCommit). An
// aborted transaction drops the hook, and the index never holds what did
// not commit. So no claim, peek or length re-lists the keyspace.
//
// Removal joins the commit batch of the transaction that consumed the
// entry (RemoveIn), so the destructive read of an agent at the start of a
// step transaction commits atomically with the rest of the transaction:
// if the step aborts or the node crashes, the agent is still in the queue
// (§2, §4.3).
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

	// visible is the index of the entry keys, ascending, and seq the next
	// sequence number. Both are read from the store on first use (load)
	// and kept by the queue's mutators from then on; every reservation
	// persists seq+1 in the same batch as its entry, so the cache and the
	// store can never diverge observably.
	visible []string
	seq     uint64
	loaded  bool
}

// Entry is one committed queue element.
type Entry struct {
	ID   string // application-level identifier (agent ID)
	Data []byte // opaque container bytes

	// Decoded is the consumer's slot for the decoded form of Data, so a
	// claim's hint pass and its execution share one decode. It lives and
	// dies with this claim's Entry; the queue never reads it.
	Decoded any

	key string // store key, used by Remove and RemoveIn
}

// Binary type bytes of the stable block 0x20..0x2f (registry in
// wire/binary.go); never reuse a value. Both are retired: 0x20 is the
// prepared insertion that carried its container (seq, ID, then the
// container), last written and read by commit e4fe5c0; 0x21 the marker of
// a prepared insertion (seq and ID of the entry it hid), last written and
// read by commit 6471191.
const typeStagedRecord = 0x20

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
	close(q.notify)
	q.notify = make(chan struct{})
}

// seqDigits is the zero-padded width of the sequence number in an entry
// key, so the lexicographic key order is the FIFO order.
const seqDigits = 16

func (q *Queue) seqKey() string { return q.prefix + "seq" }

// entryKey builds the key by hand: every step reserves one, and
// fmt.Sprintf cost a percent of a step's CPU.
func (q *Queue) entryKey(n uint64, id string) string {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	var b strings.Builder
	b.Grow(len(q.prefix) + len("e/") + seqDigits + 1 + len(id))
	b.WriteString(q.prefix)
	b.WriteString("e/")
	for i := len(d); i < seqDigits; i++ {
		b.WriteByte('0')
	}
	b.Write(d)
	b.WriteByte('/')
	b.WriteString(id)
	return b.String()
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

// IsRetiredStagedRecord reports whether raw, the value of a <prefix>s/ key,
// is a prepared insertion as commit e4fe5c0 and its predecessors back to
// PR 23 wrote it: type byte 0x20, the seq, the ID, then the container.
func IsRetiredStagedRecord(raw []byte) bool {
	b, err := wire.Body(raw, typeStagedRecord)
	if err != nil {
		return false
	}
	r := wire.NewReader(b)
	_, _ = r.Uvarint(), r.String() // the container is whatever follows
	return r.Err() == nil
}

// load reads the sequence counter and the entry keys into memory, once
// per Queue. The caller must hold q.mu.
func (q *Queue) load() error {
	if q.loaded {
		return nil
	}
	raw, ok, err := q.store.Get(q.seqKey())
	if err != nil {
		return err
	}
	var seq uint64
	if ok {
		if seq, err = strconv.ParseUint(string(raw), 10, 64); err != nil {
			return fmt.Errorf("stable: corrupt queue seq: %w", err)
		}
	}
	visible, err := q.store.Keys(q.prefix + "e/")
	if err != nil {
		return err
	}
	q.seq, q.visible, q.loaded = seq, visible, true
	return nil
}

// show puts key into the visible index at its FIFO position; drop takes
// it out. The caller must hold q.mu.
func (q *Queue) show(key string) {
	if i, found := slices.BinarySearch(q.visible, key); !found {
		q.visible = slices.Insert(q.visible, i, key)
	}
}

func (q *Queue) drop(key string) {
	if i, found := slices.BinarySearch(q.visible, key); found {
		q.visible = slices.Delete(q.visible, i, i+1)
	}
}

// nextSeq reserves the next sequence number and returns the op persisting
// the successor; the caller includes it in the batch that uses the number.
// The caller must hold q.mu and have loaded the queue. A reservation whose
// batch never commits burns the number, which only leaves a harmless gap
// in the ordering.
func (q *Queue) nextSeq() (uint64, Op) {
	n := q.seq
	q.seq = n + 1
	return n, Put(q.seqKey(), []byte(strconv.FormatUint(n+1, 10)))
}

// Enqueue atomically inserts a committed entry at the tail, together
// with extra, the caller's ops that must land in the same batch (a hand-off
// decider's commit record).
func (q *Queue) Enqueue(id string, data []byte, extra ...Op) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.load(); err != nil {
		return err
	}
	seq, seqOp := q.nextSeq()
	entry := q.putEntry(seq, id, data)
	if err := q.store.Apply(append([]Op{seqOp, entry}, extra...)...); err != nil {
		return err
	}
	q.show(entry.Key)
	q.signal()
	return nil
}

// Tx is what the queue needs of a caller's transaction (txn.Tx has it):
// ops that join its atomic commit batch, and a hook it runs once that
// batch is applied — never if the transaction aborts.
type Tx interface {
	AddCommitOps(ops ...Op)
	OnCommit(fn func())
}

// EnqueueIn inserts an entry at the tail when tx commits. The tail
// position is reserved at once (the sequence number is burnt even if tx
// aborts). This is how a step transaction atomically re-enqueues an agent
// on the *same* node: it is its own decider.
func (q *Queue) EnqueueIn(tx Tx, id string, data []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.load(); err != nil {
		return err
	}
	seq, seqOp := q.nextSeq()
	if err := q.store.Apply(seqOp); err != nil {
		return err
	}
	entry := q.putEntry(seq, id, data)
	tx.AddCommitOps(entry)
	tx.OnCommit(func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		q.show(entry.Key)
		q.signal()
	})
	return nil
}

// Each calls fn with the store key, agent ID and container bytes of every
// entry, stopping at fn's first error. A record this layout did not write
// — an entry key that names no agent, any <prefix>s/ key (the retired
// prepared insertions) — is passed on with an empty ID and its raw value,
// so a start-up check can tell a queue written by an older runtime from
// an empty one.
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
			}
			if err := fn(k, id, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// Peek returns the oldest entry, or nil if the queue is empty.
func (q *Queue) Peek() (*Entry, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.load(); err != nil {
		return nil, err
	}
	for _, k := range q.visible {
		if e, ok, err := q.readEntry(k); err != nil || ok {
			return e, err
		}
	}
	return nil, nil
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
// Cost: the scan walks the visible index, and entries passed over
// (claimed, withheld behind an in-flight agent, vetoed) are judged from
// their keys — no store reads — so the per-claim cost stays flat as the
// queue deepens with in-flight agents; exactly one store read fetches the
// winning entry.
func (q *Queue) Claim(skip func(id string) bool) (e *Entry, depth int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.load(); err != nil {
		return nil, 0, err
	}
	for _, k := range q.visible {
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
		if e, err = q.mustRead(k); err != nil {
			return nil, len(q.visible), err
		}
		q.claimed[k] = true
		q.claimedIDs[id]++
		return e, len(q.visible), nil
	}
	return nil, len(q.visible), nil
}

// readEntry fetches one visible entry: the ID from the key, the data from
// the one store read. ok is false when the key is gone from the store:
// a removal whose transaction committed and whose hook has not run yet.
// A claim never meets one (the remover holds the entry's claim); Peek
// passes over it.
func (q *Queue) readEntry(key string) (e *Entry, ok bool, err error) {
	data, ok, err := q.store.Get(key)
	if err != nil || !ok {
		return nil, ok, err
	}
	return &Entry{ID: q.entryID(key), Data: data, key: key}, true, nil
}

// mustRead is readEntry for a key no removal can be racing: missing, it
// was deleted behind this Queue's back.
func (q *Queue) mustRead(key string) (*Entry, error) {
	e, ok, err := q.readEntry(key)
	if err == nil && !ok {
		err = fmt.Errorf("stable: queue entry %q vanished from the store", key)
	}
	return e, err
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

// RemoveIn deletes e when tx commits: the destructive read of the
// transaction that consumed the entry. The caller holds e's claim until
// tx has settled (Release after commit or abort), so no other consumer
// reaches the entry between the commit batch and the hook that takes it
// out of the index.
func (q *Queue) RemoveIn(tx Tx, e *Entry) {
	tx.AddCommitOps(Del(e.key))
	tx.OnCommit(func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		q.drop(e.key)
	})
}

// Remove deletes e on its own: a poisoned entry dropped outside any
// transaction.
func (q *Queue) Remove(e *Entry) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.store.Apply(Del(e.key)); err != nil {
		return err
	}
	q.drop(e.key)
	return nil
}

// Len returns the number of visible entries.
func (q *Queue) Len() (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	err := q.load()
	return len(q.visible), err
}
