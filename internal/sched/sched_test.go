package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/stable"
)

// harness wires a pool to a fresh in-memory queue with an Exec that
// records the execution order and removes entries like a committed step
// transaction would.
type harness struct {
	store stable.Store
	queue *stable.Queue

	mu    sync.Mutex
	order []string
}

func newHarness() *harness {
	s := stable.NewMemStore(nil)
	return &harness{store: s, queue: stable.NewQueue(s, "q/")}
}

func (h *harness) record(id string) {
	h.mu.Lock()
	h.order = append(h.order, id)
	h.mu.Unlock()
}

func (h *harness) executed() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.order...)
}

// consume removes the entry durably, as a step transaction's commit batch
// does.
func (h *harness) consume(e *stable.Entry) error {
	return h.queue.Remove(e)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolProcessesAllExactlyOnce(t *testing.T) {
	h := newHarness()
	const n = 50
	for i := 0; i < n; i++ {
		if err := h.queue.Enqueue(fmt.Sprintf("a%02d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	var c metrics.Counters
	p := New(Config{
		Workers: 4,
		Queue:   h.queue,
		Exec: func(e *stable.Entry, attempt int) error {
			h.record(e.ID)
			time.Sleep(time.Millisecond) // hold the slot so concurrency builds
			return h.consume(e)
		},
		Counters: &c,
	})
	p.Start()
	waitFor(t, "all entries processed", func() bool {
		ln, _ := h.queue.Len()
		return ln == 0
	})
	p.Stop()
	got := h.executed()
	if len(got) != n {
		t.Fatalf("executed %d entries, want %d (duplicates or losses)", len(got), n)
	}
	seen := make(map[string]bool)
	for _, id := range got {
		if seen[id] {
			t.Errorf("entry %s executed twice", id)
		}
		seen[id] = true
	}
	s := c.Snapshot()
	if s.SchedClaims != n {
		t.Errorf("claims = %d, want %d", s.SchedClaims, n)
	}
	if s.SchedInFlightPeak < 2 {
		t.Errorf("in-flight peak = %d, want >= 2", s.SchedInFlightPeak)
	}
	if ln := c.StepLatency().Count; ln != n {
		t.Errorf("latency samples = %d, want %d", ln, n)
	}
}

func TestPoolRetryThenSuccess(t *testing.T) {
	h := newHarness()
	if err := h.queue.Enqueue("flaky", nil); err != nil {
		t.Fatal(err)
	}
	var c metrics.Counters
	var attempts []int
	var mu sync.Mutex
	p := New(Config{
		Workers:    2,
		RetryDelay: time.Millisecond,
		Queue:      h.queue,
		Exec: func(e *stable.Entry, attempt int) error {
			mu.Lock()
			attempts = append(attempts, attempt)
			mu.Unlock()
			if attempt < 3 {
				return errors.New("transient")
			}
			return h.consume(e)
		},
		Counters: &c,
	})
	p.Start()
	waitFor(t, "retry success", func() bool {
		ln, _ := h.queue.Len()
		return ln == 0
	})
	p.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(attempts) != 3 || attempts[0] != 1 || attempts[1] != 2 || attempts[2] != 3 {
		t.Errorf("attempts = %v, want [1 2 3]", attempts)
	}
	if s := c.Snapshot(); s.SchedRetries != 2 {
		t.Errorf("retries = %d, want 2", s.SchedRetries)
	}
}

func TestPoolPermanentFailure(t *testing.T) {
	h := newHarness()
	if err := h.queue.Enqueue("doomed", nil); err != nil {
		t.Fatal(err)
	}
	permErr := errors.New("permanent")
	var failed atomic.Int32
	p := New(Config{
		Workers:    1,
		RetryDelay: time.Millisecond,
		Queue:      h.queue,
		Exec: func(e *stable.Entry, attempt int) error {
			return permErr
		},
		Permanent: func(err error) bool { return errors.Is(err, permErr) },
		Fail: func(e *stable.Entry, cause error) {
			failed.Add(1)
			_ = h.consume(e)
		},
	})
	p.Start()
	waitFor(t, "permanent failure handled", func() bool { return failed.Load() == 1 })
	p.Stop()
	if ln, _ := h.queue.Len(); ln != 0 {
		t.Errorf("failed entry still queued (len %d)", ln)
	}
}

func TestPoolMaxAttemptsExhaustion(t *testing.T) {
	h := newHarness()
	if err := h.queue.Enqueue("limited", nil); err != nil {
		t.Fatal(err)
	}
	var execs, failed atomic.Int32
	p := New(Config{
		Workers:     1,
		RetryDelay:  time.Millisecond,
		MaxAttempts: 3,
		Queue:       h.queue,
		Exec: func(e *stable.Entry, attempt int) error {
			execs.Add(1)
			return errors.New("always transient")
		},
		Fail: func(e *stable.Entry, cause error) {
			failed.Add(1)
			_ = h.consume(e)
		},
	})
	p.Start()
	waitFor(t, "attempts exhausted", func() bool { return failed.Load() == 1 })
	p.Stop()
	if n := execs.Load(); n != 3 {
		t.Errorf("executed %d attempts, want 3", n)
	}
}

// TestPoolConflictAwareDispatch parks both workers on filler tasks while
// the dispatcher leases one task whose conflict key is busy and one whose
// key is free; the first worker released must run the free one first even
// though the busy one is older.
func TestPoolConflictAwareDispatch(t *testing.T) {
	h := newHarness()
	for _, id := range []string{"filler-1", "filler-2", "old-busy", "young-free"} {
		if err := h.queue.Enqueue(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	var busy atomic.Bool
	busy.Store(true)
	release := map[string]chan struct{}{"filler-1": make(chan struct{}), "filler-2": make(chan struct{})}
	var c metrics.Counters
	p := New(Config{
		Workers: 2,
		Queue:   h.queue,
		Hints: func(e *stable.Entry) []string {
			switch e.ID {
			case "old-busy":
				return []string{"k-busy"}
			case "young-free":
				return []string{"k-free"}
			}
			return nil
		},
		Busy: func(key string) bool { return key == "k-busy" && busy.Load() },
		Exec: func(e *stable.Entry, attempt int) error {
			if ch, ok := release[e.ID]; ok {
				<-ch
			}
			if e.ID == "young-free" {
				busy.Store(false) // lock released before the old task runs
			}
			h.record(e.ID)
			return h.consume(e)
		},
		Counters: &c,
	})
	p.Start()
	// Wait until both conflict tasks are leased into the ready set behind
	// the two fillers, then free one worker to pick.
	waitFor(t, "backlog leased", func() bool { return h.queue.Claimed() == 4 })
	close(release["filler-1"])
	waitFor(t, "conflict tasks done", func() bool { return len(h.executed()) == 3 })
	close(release["filler-2"])
	waitFor(t, "all done", func() bool {
		ln, _ := h.queue.Len()
		return ln == 0
	})
	p.Stop()
	got := h.executed()
	want := []string{"filler-1", "young-free", "old-busy"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
	if s := c.Snapshot(); s.SchedClaimConflicts < 1 {
		t.Errorf("claim conflicts = %d, want >= 1", s.SchedClaimConflicts)
	}
}

// TestPoolBoundedAdmission checks backpressure: with every worker wedged,
// the pool leases at most 2×Workers entries, leaving the rest on stable
// storage.
func TestPoolBoundedAdmission(t *testing.T) {
	h := newHarness()
	const n = 20
	for i := 0; i < n; i++ {
		if err := h.queue.Enqueue(fmt.Sprintf("a%02d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	release := make(chan struct{})
	p := New(Config{
		Workers: 2,
		Queue:   h.queue,
		Exec: func(e *stable.Entry, attempt int) error {
			<-release
			return h.consume(e)
		},
	})
	p.Start()
	waitFor(t, "admission filled", func() bool { return h.queue.Claimed() == 4 })
	time.Sleep(20 * time.Millisecond) // give an over-admitting bug time to show
	if cl := h.queue.Claimed(); cl != 4 {
		t.Errorf("claimed %d entries, admission bound is 4", cl)
	}
	close(release)
	waitFor(t, "drained", func() bool {
		ln, _ := h.queue.Len()
		return ln == 0
	})
	p.Stop()
}

// TestPoolStopDrains checks that Stop waits for the running attempt and
// releases the leases of never-started tasks.
func TestPoolStopDrains(t *testing.T) {
	h := newHarness()
	for i := 0; i < 4; i++ {
		if err := h.queue.Enqueue(fmt.Sprintf("a%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	p := New(Config{
		Workers: 1,
		Queue:   h.queue,
		Exec: func(e *stable.Entry, attempt int) error {
			close(started)
			<-release
			finished.Store(true)
			return h.consume(e)
		},
	})
	p.Start()
	<-started
	waitFor(t, "backlog leased", func() bool { return h.queue.Claimed() == 2 })
	done := make(chan struct{})
	go func() {
		p.Stop()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Stop returned while an attempt was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-done
	if !finished.Load() {
		t.Error("running attempt did not finish before Stop returned")
	}
	if cl := h.queue.Claimed(); cl != 0 {
		t.Errorf("%d leases leaked after Stop", cl)
	}
	if ln, _ := h.queue.Len(); ln != 3 {
		t.Errorf("queue len after drain = %d, want 3 unprocessed", ln)
	}
}

// TestPoolPerAgentFIFOUnderConcurrency floods the pool with interleaved
// per-agent sequences and asserts each agent's entries execute in order.
func TestPoolPerAgentFIFO(t *testing.T) {
	h := newHarness()
	const agents, perAgent = 4, 5
	// Entries are enqueued round-robin: a0#0 a1#0 ... a0#1 a1#1 ...
	for s := 0; s < perAgent; s++ {
		for a := 0; a < agents; a++ {
			id := fmt.Sprintf("agent%d", a)
			if err := h.queue.Enqueue(id, []byte(fmt.Sprintf("%d", s))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var mu sync.Mutex
	seen := make(map[string][]string)
	p := New(Config{
		Workers: 8,
		Queue:   h.queue,
		Exec: func(e *stable.Entry, attempt int) error {
			mu.Lock()
			seen[e.ID] = append(seen[e.ID], string(e.Data))
			mu.Unlock()
			return h.consume(e)
		},
	})
	p.Start()
	waitFor(t, "drained", func() bool {
		ln, _ := h.queue.Len()
		return ln == 0
	})
	p.Stop()
	mu.Lock()
	defer mu.Unlock()
	for a := 0; a < agents; a++ {
		id := fmt.Sprintf("agent%d", a)
		if len(seen[id]) != perAgent {
			t.Fatalf("agent %s: %d executions, want %d", id, len(seen[id]), perAgent)
		}
		for s := 0; s < perAgent; s++ {
			if seen[id][s] != fmt.Sprintf("%d", s) {
				t.Errorf("agent %s executed out of order: %v", id, seen[id])
				break
			}
		}
	}
}

// TestPoolPermanentWithoutFailHandlerBacksOff: a permanent error with no
// Fail handler must not settle the still-queued entry — the attempt
// count and cooldown persist, so the poisoned entry retries at the
// cooldown rate instead of spinning hot with a fresh counter.
func TestPoolPermanentWithoutFailHandler(t *testing.T) {
	h := newHarness()
	if err := h.queue.Enqueue("poison", nil); err != nil {
		t.Fatal(err)
	}
	permErr := errors.New("permanent")
	var execs atomic.Int32
	p := New(Config{
		Workers:    2,
		RetryDelay: 20 * time.Millisecond,
		Queue:      h.queue,
		Exec: func(e *stable.Entry, attempt int) error {
			execs.Add(1)
			return permErr
		},
		Permanent: func(err error) bool { return errors.Is(err, permErr) },
	})
	p.Start()
	time.Sleep(100 * time.Millisecond)
	p.Stop()
	// 100ms / 20ms cooldown => ~5 attempts; a hot loop would be in the
	// thousands.
	if n := execs.Load(); n > 20 {
		t.Errorf("%d attempts in 100ms: cooldown not applied to unhandled permanent failure", n)
	}
	if n := execs.Load(); n == 0 {
		t.Error("entry never attempted")
	}
}

// TestPoolHeldAttempt checks the held-attempt contract: an Exec that
// returns Held frees its worker at once — with one worker, a second
// entry runs while the first is held — while the lease stays and counts
// toward the 2×Workers bound; Settle then ends the attempt like a
// return would: a retryable error keeps the attempt count and retries
// after the cooldown, nil completes it. A Settle that runs before Exec
// returns Held is applied once Exec does.
func TestPoolHeldAttempt(t *testing.T) {
	h := newHarness()
	for _, id := range []string{"held", "other", "third"} {
		if err := h.queue.Enqueue(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	var (
		mu       sync.Mutex
		held     = map[string]*stable.Entry{}
		attempts = map[string][]int{}
		p        *Pool
	)
	p = New(Config{
		Workers:    1,
		RetryDelay: time.Millisecond,
		Queue:      h.queue,
		Exec: func(e *stable.Entry, attempt int) error {
			mu.Lock()
			attempts[e.ID] = append(attempts[e.ID], attempt)
			mu.Unlock()
			switch {
			case e.ID == "third":
				// Settled inside its own Exec, before Held is returned.
				if err := h.consume(e); err != nil {
					return err
				}
				p.Settle(e, nil)
				return Held
			case attempt == 1:
				mu.Lock()
				held[e.ID] = e
				mu.Unlock()
				return Held
			}
			return h.consume(e)
		},
	})
	p.Start()
	defer p.Stop()
	waitFor(t, "both held", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(held) == 2
	})
	// Two held leases fill the bound of one worker: "third" waits.
	time.Sleep(20 * time.Millisecond)
	if cl := h.queue.Claimed(); cl != 2 {
		t.Fatalf("claimed %d entries while two attempts are held, want 2", cl)
	}
	mu.Lock()
	hold, other := held["held"], held["other"]
	mu.Unlock()
	p.Settle(hold, errors.New("refused"))
	if err := h.consume(other); err != nil { // its transaction committed
		t.Fatal(err)
	}
	p.Settle(other, nil)
	p.Settle(other, errors.New("late")) // settled already: ignored
	waitFor(t, "drained", func() bool {
		ln, _ := h.queue.Len()
		return ln == 0 && h.queue.Claimed() == 0
	})
	mu.Lock()
	defer mu.Unlock()
	want := map[string][]int{"held": {1, 2}, "other": {1}, "third": {1}}
	for id, w := range want {
		if fmt.Sprint(attempts[id]) != fmt.Sprint(w) {
			t.Errorf("%s attempts = %v, want %v", id, attempts[id], w)
		}
	}
}

// TestPoolStopReleasesHeld checks that Stop releases a held lease and
// that a later Settle of it does nothing.
func TestPoolStopReleasesHeld(t *testing.T) {
	h := newHarness()
	if err := h.queue.Enqueue("held", nil); err != nil {
		t.Fatal(err)
	}
	got := make(chan *stable.Entry, 1)
	failed := false
	p := New(Config{
		Workers: 1,
		Queue:   h.queue,
		Exec: func(e *stable.Entry, attempt int) error {
			got <- e
			return Held
		},
		Permanent: func(error) bool { return true },
		Fail:      func(*stable.Entry, error) { failed = true },
	})
	p.Start()
	e := <-got
	p.Stop()
	if cl := h.queue.Claimed(); cl != 0 {
		t.Fatalf("claimed %d after Stop, want 0", cl)
	}
	p.Settle(e, errors.New("after stop"))
	if failed {
		t.Fatal("a Settle after Stop ran Fail")
	}
}
