// Package sched implements the node's concurrent step scheduler: a pool
// of N workers draining one agent input queue (stable.Queue) with
// claim/lease hand-out, conflict-aware dispatch and bounded admission.
//
// The paper's node model (§2) executes one step transaction at a time;
// the strict-2PL transaction layer underneath makes step transactions
// safe to run concurrently, so the pool generalizes the serial work loop
// without touching the exactly-once or rollback guarantees:
//
//   - Claims are volatile leases on queue entries (stable.Queue.Claim).
//     An entry is only *removed* by the step transaction's own commit
//     batch, exactly as before, so a crash releases every claim and
//     recovery replays the queue unchanged (§4.3's "the agent still
//     resides in the input queue").
//   - Per-agent FIFO order is preserved by the queue: a younger entry of
//     an agent is never handed out while an older one is leased.
//   - Conflict-aware dispatch: tasks carry advisory resource keys
//     (Config.Hints); a ready task whose keys collide with running work —
//     or with a busy transaction lock (Config.Busy, backed by
//     txn.Lock.Busy) — is passed over when a non-conflicting task is
//     ready. If every ready task conflicts, the oldest runs anyway: 2PL
//     serializes it, and workers never starve.
//   - Bounded admission: at most 2×Workers entries are leased at once
//     (every worker busy and as many ready behind them), so a deep queue
//     stays on stable storage instead of in memory (backpressure against
//     unbounded claim slurping).
//   - Abort/retry: a retryable failure (2PL lock conflict, remote ack
//     timeout, §2's "abort and restart the step transaction") releases
//     the lease and puts the agent on a RetryDelay cooldown; permanent
//     failures and exhausted attempts are handed to Config.Fail.
package sched

import (
	"errors"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/stable"
	"repro/internal/trace"
	"repro/internal/txn"
)

// pollInterval bounds the dispatcher's sleep when no wakeup source is
// armed (safety net; the broadcast Notify normally wakes it).
const pollInterval = 50 * time.Millisecond

// Config configures a Pool. Queue and Exec are mandatory.
type Config struct {
	// Workers is the number of concurrent step executors (min 1). The
	// pool leases at most 2×Workers entries.
	Workers int
	// RetryDelay is the cooldown before a retryable failure is retried.
	RetryDelay time.Duration
	// MaxAttempts bounds attempts per container before Fail is called.
	// 0 means unbounded.
	MaxAttempts int

	// Queue is the agent input queue drained by the pool.
	Queue *stable.Queue
	// Exec processes one claimed entry (attempt starts at 1). A nil
	// return completes the task; the entry must have been removed
	// durably by Exec's own transaction.
	Exec func(e *stable.Entry, attempt int) error
	// Permanent classifies errors that retrying cannot fix; may be nil
	// (every error retryable until MaxAttempts).
	Permanent func(err error) bool
	// Fail handles a permanently failed entry (it should remove the
	// entry durably); may be nil.
	Fail func(e *stable.Entry, cause error)

	// Hints returns advisory resource-conflict keys for an entry; may be
	// nil (no conflict avoidance). Called once per claim, outside the
	// pool lock — it may decode the container.
	Hints func(e *stable.Entry) []string
	// Busy reports whether the transaction lock behind a conflict key is
	// currently held (txn.Lock.Busy); may be nil.
	Busy func(key string) bool

	// Counters receives scheduler metrics; nil = off, methods are
	// nil-safe (as Tracer).
	Counters *metrics.Counters
	// Tracer receives claim/retry/abort records (nil-safe).
	Tracer *trace.Tracer
}

// task is one leased queue entry awaiting or undergoing execution.
type task struct {
	entry *stable.Entry
	keys  []string
}

// Pool runs Config.Workers workers over the input queue. Start launches
// it; Stop drains it (running attempts finish, leases on never-started
// tasks are released).
type Pool struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond // wakes workers when ready grows or stop is set
	ready    []*task    // leased, awaiting a worker, oldest first
	running  int
	runKeys  map[string]int // conflict-key multiset of running tasks
	attempts map[string]int // per-container attempt counts (by agent ID)
	cooldown map[string]time.Time
	stopped  bool

	slotFree chan struct{} // cap 1: a lease or admission slot was freed
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New creates a pool; it does not start any goroutine.
func New(cfg Config) *Pool {
	if cfg.Queue == nil || cfg.Exec == nil {
		panic("sched: Config.Queue and Config.Exec are required")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 10 * time.Millisecond
	}
	p := &Pool{
		cfg:      cfg,
		runKeys:  make(map[string]int),
		attempts: make(map[string]int),
		cooldown: make(map[string]time.Time),
		slotFree: make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Start launches the dispatcher and the workers.
func (p *Pool) Start() {
	p.wg.Add(1 + p.cfg.Workers)
	go func() {
		defer p.wg.Done()
		p.dispatcher()
	}()
	for i := 0; i < p.cfg.Workers; i++ {
		go func() {
			defer p.wg.Done()
			p.worker()
		}()
	}
}

// Stop drains the pool: no new tasks are dispatched, running attempts
// finish (the caller should first unblock anything Exec waits on, e.g.
// by closing the node's stop channel), and leases on tasks that never
// started are released. Stop is idempotent.
func (p *Pool) Stop() {
	p.mu.Lock()
	already := p.stopped
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
	if !already {
		close(p.stop)
	}
	p.wg.Wait()
	p.mu.Lock()
	ready := p.ready
	p.ready = nil
	p.mu.Unlock()
	for _, t := range ready {
		p.cfg.Queue.Release(t.entry)
	}
}

// dispatcher claims entries into the bounded ready set and sleeps on the
// queue's broadcast Notify, freed slots, or cooldown expiry.
func (p *Pool) dispatcher() {
	// One timer for the dispatcher's life: since Go 1.23 Reset discards
	// a fire nobody received, so a pass never wakes on a stale one.
	timer := time.NewTimer(pollInterval)
	defer timer.Stop()
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		// Grab the notify channel BEFORE trying to claim: a signal
		// between the failed claim and the wait then still wakes us.
		ch := p.cfg.Queue.Notify()
		claimed, wait := p.tryClaim()
		if claimed {
			continue
		}
		timer.Reset(wait)
		select {
		case <-p.stop:
			return
		case <-ch:
		case <-p.slotFree:
		case <-timer.C:
		}
	}
}

// tryClaim leases at most one entry; it reports whether it did, and
// otherwise how long the dispatcher may sleep (bounded by the nearest
// cooldown expiry).
func (p *Pool) tryClaim() (bool, time.Duration) {
	p.mu.Lock()
	if p.stopped || len(p.ready)+p.running >= 2*p.cfg.Workers {
		p.mu.Unlock()
		return false, pollInterval
	}
	now := time.Now()
	wait := pollInterval
	var cooling map[string]bool
	for id, until := range p.cooldown {
		if !now.Before(until) {
			delete(p.cooldown, id)
			continue
		}
		if cooling == nil {
			cooling = make(map[string]bool, len(p.cooldown))
		}
		cooling[id] = true
		if d := until.Sub(now); d < wait {
			wait = d
		}
	}
	p.mu.Unlock()
	// The claim scan (store keys + entry decode) and the hint decode run
	// outside the pool lock: finishing workers must not queue behind
	// store I/O. The cooldown snapshot may miss a cooldown set after the
	// unlock — the claimed entry then just retries a little early, which
	// is harmless (cooldowns are advisory back-off, not correctness).
	var skip func(id string) bool
	if cooling != nil {
		skip = func(id string) bool { return cooling[id] }
	}
	e, depth, err := p.cfg.Queue.Claim(skip)
	if err != nil || e == nil {
		return false, wait
	}
	var keys []string
	if p.cfg.Hints != nil {
		keys = p.cfg.Hints(e)
	}
	p.cfg.Counters.IncSchedClaim(int64(depth))
	p.cfg.Tracer.Rec(trace.OpSchedClaim, "", e.ID, "", "", "", int64(depth))
	t := &task{entry: e, keys: keys}
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		p.cfg.Queue.Release(e)
		return false, pollInterval
	}
	p.ready = append(p.ready, t)
	p.cond.Broadcast()
	p.mu.Unlock()
	return true, 0
}

func (p *Pool) worker() {
	for {
		t := p.take()
		if t == nil {
			return
		}
		p.exec(t)
	}
}

// take blocks until a ready task is dispatchable (or the pool stops).
func (p *Pool) take() *task {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.stopped {
			return nil
		}
		if t := p.selectLocked(); t != nil {
			p.running++
			for _, k := range t.keys {
				p.runKeys[k]++
			}
			return t
		}
		p.cond.Wait()
	}
}

// selectLocked picks the oldest ready task whose conflict keys do not
// collide with running work or a busy lock; if every ready task
// conflicts, the oldest is taken anyway — 2PL serializes it and no
// worker starves. Passing over the head to a younger non-conflicting
// task is what the claim-conflict counter records.
func (p *Pool) selectLocked() *task {
	if len(p.ready) == 0 {
		return nil
	}
	pick := -1
	for i, t := range p.ready {
		if !p.conflictsLocked(t) {
			pick = i
			break
		}
	}
	if pick < 0 {
		pick = 0
	} else if pick > 0 {
		p.cfg.Counters.IncClaimConflict()
	}
	t := p.ready[pick]
	p.ready = append(p.ready[:pick], p.ready[pick+1:]...)
	return t
}

func (p *Pool) conflictsLocked(t *task) bool {
	for _, k := range t.keys {
		if p.runKeys[k] > 0 {
			return true
		}
		if p.cfg.Busy != nil && p.cfg.Busy(k) {
			return true
		}
	}
	return false
}

// exec runs one attempt and settles the task: done, retry-after-cooldown,
// or permanent failure.
func (p *Pool) exec(t *task) {
	p.mu.Lock()
	attempt := p.attempts[t.entry.ID] + 1
	p.mu.Unlock()

	p.cfg.Counters.StepStarted()
	start := time.Now()
	err := p.cfg.Exec(t.entry, attempt)
	p.cfg.Counters.StepFinished(time.Since(start), err == nil)

	settled := err == nil
	if err != nil {
		perm := p.cfg.Permanent != nil && p.cfg.Permanent(err)
		if !perm && p.cfg.MaxAttempts > 0 && attempt >= p.cfg.MaxAttempts {
			perm = true
		}
		if !perm {
			p.cfg.Counters.IncSchedRetry()
			if errors.Is(err, txn.ErrLockTimeout) {
				p.cfg.Counters.IncLockConflictAbort()
			}
			p.cfg.Tracer.Rec(trace.OpSchedRetry, "", t.entry.ID, err.Error(), "", "", int64(attempt))
		} else {
			p.cfg.Tracer.Rec(trace.OpSchedAbort, "", t.entry.ID, err.Error(), "", "", int64(attempt))
		}
		if perm && p.cfg.Fail != nil {
			p.cfg.Fail(t.entry, err)
			settled = true
		}
		// perm without a Fail handler: the entry is still queued, so it
		// is NOT settled — keep the attempt count and cooldown, or the
		// poisoned entry would spin hot forever with a fresh attempt
		// counter.
	}

	p.mu.Lock()
	p.running--
	for _, k := range t.keys {
		if p.runKeys[k] <= 1 {
			delete(p.runKeys, k)
		} else {
			p.runKeys[k]--
		}
	}
	if settled {
		delete(p.attempts, t.entry.ID)
		delete(p.cooldown, t.entry.ID)
	} else {
		p.attempts[t.entry.ID] = attempt
		p.cooldown[t.entry.ID] = time.Now().Add(p.cfg.RetryDelay)
	}
	p.mu.Unlock()

	// Release after settling: on success/failure the entry is already
	// durably gone (Exec/Fail removed it in their transactions); on retry
	// it becomes claimable again once the cooldown lapses.
	p.cfg.Queue.Release(t.entry)
	select {
	case p.slotFree <- struct{}{}:
	default:
	}
}
