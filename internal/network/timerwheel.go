package network

import (
	"container/heap"
	"sync"
	"time"

	"repro/internal/metrics"
)

// TimerWheel multiplexes any number of named one-shot timers onto a
// single goroutine driven by a Clock. It exists so a node's protocol
// timers (control-message retries, in-doubt queries, stale-branch
// checks, notification resends) cost O(1) goroutines per node instead
// of one polling goroutine — or one ticker scan — per in-flight
// transaction, and so a VirtualClock advances every protocol timer
// deterministically in deadline order.
//
// Schedule(id, d) arms (or re-arms) the timer id to fire after d on the
// wheel's clock; Cancel disarms it. When a timer fires, the wheel calls
// the fire callback with the id, outside the wheel's lock — the
// callback may Schedule or Cancel freely. Each timer is one-shot: it
// fires at most once per Schedule.
type TimerWheel struct {
	clock    Clock
	fire     func(id string)
	counters *metrics.Counters // armed/fired/canceled counts; nil = off

	mu     sync.Mutex
	heap   timerHeap
	index  map[string]*timerEntry
	seq    int64
	closed bool

	poke chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

type timerEntry struct {
	id       string
	deadline time.Time
	seq      int64 // FIFO tiebreak for equal deadlines
	pos      int   // heap index; -1 when removed
}

// NewTimerWheel creates and starts a wheel on the given clock (nil uses
// the wall clock). fire is invoked for every expired timer, one at a
// time, from the wheel's single goroutine. A nil counters is off.
func NewTimerWheel(clock Clock, fire func(id string), counters *metrics.Counters) *TimerWheel {
	if clock == nil {
		clock = WallClock()
	}
	w := &TimerWheel{
		clock:    clock,
		fire:     fire,
		counters: counters,
		index:    make(map[string]*timerEntry),
		poke:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.run()
	}()
	return w
}

// Schedule arms timer id to fire after d. An already-armed id is
// re-armed to the new deadline (the old one never fires). d <= 0 fires
// on the next wheel pass.
func (w *TimerWheel) Schedule(id string, d time.Duration) {
	deadline := w.clock.Now().Add(d)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if e, ok := w.index[id]; ok {
		e.deadline = deadline
		e.seq = w.seq
		w.seq++
		heap.Fix(&w.heap, e.pos)
	} else {
		e := &timerEntry{id: id, deadline: deadline, seq: w.seq}
		w.seq++
		w.index[id] = e
		heap.Push(&w.heap, e)
	}
	w.mu.Unlock()
	w.counters.IncTimerArmed()
	w.wake()
}

// Cancel disarms timer id; a timer that already fired (or was never
// armed) is a no-op.
func (w *TimerWheel) Cancel(id string) {
	w.mu.Lock()
	e, ok := w.index[id]
	if ok {
		delete(w.index, id)
		heap.Remove(&w.heap, e.pos)
	}
	w.mu.Unlock()
	if ok {
		w.counters.IncTimerCanceled()
	}
}

// Len returns the number of armed timers.
func (w *TimerWheel) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.index)
}

// Stop halts the wheel; armed timers never fire and further Schedule
// calls are ignored. Stop is idempotent and waits for the wheel
// goroutine (and any in-progress fire callback) to return.
func (w *TimerWheel) Stop() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.stop)
	}
	w.mu.Unlock()
	w.wg.Wait()
}

func (w *TimerWheel) wake() {
	select {
	case w.poke <- struct{}{}:
	default:
	}
}

// run is the wheel goroutine: fire everything due, then sleep on the
// clock until the earliest deadline (or until poked by Schedule).
func (w *TimerWheel) run() {
	for {
		now := w.clock.Now()
		var due []string
		w.mu.Lock()
		for len(w.heap) > 0 && !w.heap[0].deadline.After(now) {
			e := heap.Pop(&w.heap).(*timerEntry)
			delete(w.index, e.id)
			due = append(due, e.id)
		}
		var wait <-chan time.Time
		if len(w.heap) > 0 && len(due) == 0 {
			d := w.heap[0].deadline.Sub(now)
			w.mu.Unlock()
			// After is registered outside the lock: a VirtualClock
			// Advance firing this waiter re-enters via the channel, and
			// Schedule/Cancel must not block behind the registration.
			wait = w.clock.After(d)
		} else {
			w.mu.Unlock()
		}
		for _, id := range due {
			w.counters.IncTimerFired()
			w.fire(id)
		}
		if len(due) > 0 {
			continue // deadlines may have accrued while firing
		}
		if wait == nil {
			// Nothing armed: sleep until poked.
			select {
			case <-w.stop:
				return
			case <-w.poke:
			}
			continue
		}
		select {
		case <-w.stop:
			return
		case <-w.poke:
			// A Schedule may have armed an earlier deadline; the
			// abandoned clock waiter is harmless (capacity-1 channel).
		case <-wait:
		}
	}
}

// timerHeap is a min-heap on (deadline, seq).
type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}
func (h *timerHeap) Push(x any) {
	e := x.(*timerEntry)
	e.pos = len(*h)
	*h = append(*h, e)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.pos = -1
	*h = old[:n-1]
	return e
}
