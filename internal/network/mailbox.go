package network

import "sync"

// mailbox is a message queue with a channel front-end, shared by the
// simulated and TCP endpoints. Senders never block on a slow receiver — a
// crashed or wedged receiver must not be able to stall a sender's
// transaction. The queue is unbounded by default; a positive limit drops
// overflowing messages instead. Every drop — overflow or a message racing
// a close — is reported through onDrop so the loss is counted rather than
// silent (the protocol's retries cover it, exactly like a message lost on
// the wire).
type mailbox struct {
	limit  int    // 0: unbounded
	onDrop func() // overflow accounting; may be nil

	mu     sync.Mutex
	queue  []Message
	closed bool

	notify chan struct{} // cap 1: "queue became non-empty"
	out    chan Message
	done   chan struct{}
}

func newMailbox() *mailbox { return newBoundedMailbox(0, nil) }

func newBoundedMailbox(limit int, onDrop func()) *mailbox {
	mb := &mailbox{
		limit:  limit,
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
// mailbox half of per-link coalescing. What does not fit, or races a
// close, is dropped and counted per message, so the loss reconciles
// against the send counters.
func (mb *mailbox) enqueue(msgs ...Message) {
	mb.mu.Lock()
	fit := len(msgs)
	if mb.closed {
		fit = 0
	} else if mb.limit > 0 {
		fit = max(0, min(fit, mb.limit-len(mb.queue)))
	}
	mb.queue = append(mb.queue, msgs[:fit]...)
	mb.mu.Unlock()
	if mb.onDrop != nil {
		for range msgs[fit:] {
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
