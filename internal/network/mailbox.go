package network

import "sync"

// mailbox is a message queue with a channel front-end, shared by the
// simulated and TCP endpoints. Senders never block on a slow receiver — a
// crashed or wedged receiver must not be able to stall a sender's
// transaction. The queue is unbounded: §4.3's temporary faults are
// injected as link drops, not as a full inbox. A message that races a
// close is dropped and reported through onDrop, so the loss is counted
// rather than silent (the protocol's retries cover it, exactly like a
// message lost on the wire).
type mailbox struct {
	onDrop func() // drop accounting

	mu     sync.Mutex
	queue  []Message
	closed bool

	notify chan struct{} // cap 1: "queue became non-empty"
	out    chan Message
	done   chan struct{}
}

func newMailbox(onDrop func()) *mailbox {
	mb := &mailbox{
		onDrop: onDrop,
		notify: make(chan struct{}, 1),
		out:    make(chan Message),
		done:   make(chan struct{}),
	}
	go mb.pump()
	return mb
}

func (mb *mailbox) Recv() <-chan Message { return mb.out }

// enqueue appends messages in one lock acquisition and one wake-up — the
// mailbox half of per-link coalescing. A batch that races a close is
// dropped and counted per message, so the loss reconciles against the
// send counters.
func (mb *mailbox) enqueue(msgs ...Message) {
	mb.mu.Lock()
	closed := mb.closed
	if !closed {
		mb.queue = append(mb.queue, msgs...)
	}
	mb.mu.Unlock()
	if closed {
		for range msgs {
			mb.onDrop()
		}
	}
	select {
	case mb.notify <- struct{}{}:
	default:
	}
}

// pump moves messages from the unbounded queue to the out channel.
func (mb *mailbox) pump() {
	defer close(mb.out)
	for {
		mb.mu.Lock()
		if mb.closed {
			mb.mu.Unlock()
			return
		}
		if len(mb.queue) == 0 {
			mb.mu.Unlock()
			select {
			case <-mb.notify:
				continue
			case <-mb.done:
				return
			}
		}
		msg := mb.queue[0]
		mb.queue = mb.queue[1:]
		mb.mu.Unlock()
		select {
		case mb.out <- msg:
		case <-mb.done:
			return
		}
	}
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return
	}
	mb.closed = true
	mb.queue = nil
	mb.mu.Unlock()
	close(mb.done)
}
