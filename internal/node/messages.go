package node

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// The protocol message kinds and payloads (q.*, rce.*, txn.*) live in
// internal/protocol; this file keeps only the node-runtime messages:
// agent launch and completion notification.
const (
	kindAgentLaunch    = "agent.launch"
	kindAgentLaunchAck = "agent.launch.ack"
	kindAgentDone      = "agent.done"
	kindAgentDoneAck   = "agent.done.ack"
)

// Mode distinguishes the two kinds of work a queued container requests.
type Mode int

// Container modes.
const (
	// ModeStep: execute the next step of the itinerary (§2).
	ModeStep Mode = iota + 1
	// ModeRollback: execute the next compensation transaction of a
	// partial rollback towards savepoint SpID (§4.3).
	ModeRollback
)

// Container is the unit stored in agent input queues and transferred
// between nodes: the agent (with its attached rollback log) plus the
// processing mode.
type Container struct {
	Mode  Mode
	SpID  string // rollback target savepoint (ModeRollback only)
	Agent *agent.Agent
	// Epoch versions migration hand-offs of this container. Zero on the
	// ordinary step/rollback paths; the rebalancer bumps it before each
	// migration so a destination can refuse adopting an agent epoch it
	// has already adopted (duplicate-adoption guard, see membership.go).
	Epoch int64
}

// Binary type bytes of the node-runtime partition 0x10–0x1F (the
// protocol messages own 0x01–0x0F); never reuse a value.
const (
	typeDone      = 0x10 // doneMsg
	typeContainer = 0x11 // Container
	typeLaunch    = 0x12 // launchMsg
	typeDoneRec   = 0x13 // durable completion record (stable storage only)
	typeAnnounce  = 0x14 // announceMsg
)

// EncodeContainer serializes a container for queue storage / transfer:
//
//	0x90 0x11 | Mode SpID Epoch | agent head | WRO SRO Log
//
// with the agent part as agent.Agent.AppendTo writes it. Map keys are
// written in sorted order, so equal containers give equal bytes. This is
// the only container format; the gob encoding it replaced (last read by
// commit 5015b40) is refused at node start, see refuseOlderLayout. The
// result is an exact-size copy out of a pooled scratch buffer.
func EncodeContainer(c *Container) ([]byte, error) {
	scratch := wire.GetScratch()
	defer wire.PutScratch(scratch)
	buf := append((*scratch)[:0], wire.BinaryVersion, typeContainer)
	buf = wire.AppendVarint(buf, int64(c.Mode))
	buf = wire.AppendString(buf, c.SpID)
	buf = wire.AppendVarint(buf, c.Epoch)
	buf, err := c.Agent.AppendTo(buf)
	if err != nil {
		return nil, fmt.Errorf("node: encode container: %w", err)
	}
	*scratch = buf
	out := make([]byte, len(buf))
	copy(out, buf)
	return out, nil
}

// containerHead reads what precedes the agent and leaves r at it.
func containerHead(data []byte) (*Container, *wire.Reader, error) {
	b, err := wire.Body(data, typeContainer)
	if err != nil {
		return nil, nil, err
	}
	r := wire.NewReader(b)
	return &Container{Mode: Mode(r.Int()), SpID: r.String(), Epoch: r.Varint()}, r, nil
}

// DecodeContainer deserializes a container; anything but exactly one
// well-formed container is wire.ErrCorrupt. Data-space, savepoint-image
// and parameter values alias data, which the caller must not modify
// afterwards (queue entries and inbound payloads qualify: each is freshly
// allocated and immutable once delivered).
func DecodeContainer(data []byte) (*Container, error) {
	c, r, err := containerHead(data)
	if err != nil {
		return nil, err
	}
	c.Agent = agent.Read(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// peekContainer decodes only the leading fields of a container — mode,
// savepoint, epoch and the agent's head (ID, owner, step counter, cursor,
// itinerary) — for routing decisions that never look at the data spaces
// or the log. What follows the head is not validated.
func peekContainer(data []byte) (*Container, error) {
	c, r, err := containerHead(data)
	if err != nil {
		return nil, err
	}
	c.Agent = agent.ReadHead(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// launchMsg inserts a fresh agent container into the node's input queue.
type launchMsg struct {
	ID   string // request correlation + queue entry ID
	Data []byte
}

// AppendTo implements wire.BinaryMessage.
func (m *launchMsg) AppendTo(buf []byte) []byte {
	buf = append(buf, wire.BinaryVersion, typeLaunch)
	buf = wire.AppendString(buf, m.ID)
	return wire.AppendBytes(buf, m.Data)
}

// DecodeFrom implements wire.BinaryMessage. Data aliases the input.
func (m *launchMsg) DecodeFrom(data []byte) error {
	b, err := wire.Body(data, typeLaunch)
	if err != nil {
		return err
	}
	r := wire.NewReader(b)
	m.ID, m.Data = r.String(), r.Bytes()
	return r.Done()
}

// doneMsg reports agent completion (or permanent failure) to its owner.
type doneMsg struct {
	AgentID string
	Failed  bool
	Reason  string
	Data    []byte // final agent container
}

// AppendTo implements wire.BinaryMessage: completion notifications carry
// the full final agent container, so they ride the fast path alongside
// the protocol messages.
func (m *doneMsg) AppendTo(buf []byte) []byte {
	buf = append(buf, wire.BinaryVersion, typeDone)
	buf = wire.AppendString(buf, m.AgentID)
	buf = wire.AppendBool(buf, m.Failed)
	buf = wire.AppendString(buf, m.Reason)
	return wire.AppendBytes(buf, m.Data)
}

// DecodeFrom implements wire.BinaryMessage. Data aliases the input.
func (m *doneMsg) DecodeFrom(data []byte) error {
	b, err := wire.Body(data, typeDone)
	if err != nil {
		return err
	}
	r := wire.NewReader(b)
	m.AgentID, m.Failed, m.Reason, m.Data = r.String(), r.Bool(), r.String(), r.Bytes()
	return r.Done()
}

// appendDoneRec builds the durable completion record kept under done/
// and re-sent to the owner until acknowledged:
//
//	0x90 0x13 | Owner | the doneMsg payload, to the end of the record
func appendDoneRec(owner string, msg *doneMsg) []byte {
	buf := append(make([]byte, 0, 32+len(owner)+len(msg.AgentID)+len(msg.Reason)+len(msg.Data)), wire.BinaryVersion, typeDoneRec)
	return msg.AppendTo(wire.AppendString(buf, owner))
}

// readDoneRec decodes a completion record; msg.Data aliases raw.
func readDoneRec(raw []byte) (owner string, msg *doneMsg, err error) {
	b, err := wire.Body(raw, typeDoneRec)
	if err != nil {
		return "", nil, err
	}
	r := wire.NewReader(b)
	owner, msg = r.String(), new(doneMsg)
	// A failed read leaves nothing behind it, which is no doneMsg either.
	return owner, msg, msg.DecodeFrom(r.Rest())
}

// Exported message kinds for collectors (owners) built outside this
// package.
const (
	// KindAgentDone is the completion notification an owner receives.
	KindAgentDone = kindAgentDone
	// KindAgentDoneAck acknowledges a completion notification.
	KindAgentDoneAck = kindAgentDoneAck
)

// Done is the decoded form of a completion notification.
type Done struct {
	AgentID string
	Failed  bool
	Reason  string
	Agent   *agent.Agent
}

// DecodeDone decodes a KindAgentDone payload.
func DecodeDone(payload []byte) (Done, error) {
	var dm doneMsg
	if err := dm.DecodeFrom(payload); err != nil {
		return Done{}, err
	}
	d := Done{AgentID: dm.AgentID, Failed: dm.Failed, Reason: dm.Reason}
	if len(dm.Data) > 0 {
		cont, err := DecodeContainer(dm.Data)
		if err != nil {
			return Done{}, err
		}
		d.Agent = cont.Agent
	}
	return d, nil
}

// EncodeDoneAck builds the KindAgentDoneAck payload for agentID.
func EncodeDoneAck(agentID string) ([]byte, error) {
	ack := protocol.AckMsg{TxnID: agentID, OK: true}
	return ack.AppendTo(nil), nil
}

// KindAgentLaunch is the message kind inserting a fresh agent container
// into a node's input queue; external launchers (agentctl) send it.
const KindAgentLaunch = kindAgentLaunch

// EncodeLaunch builds a KindAgentLaunch payload.
func EncodeLaunch(id string, container []byte) ([]byte, error) {
	return (&launchMsg{ID: id, Data: container}).AppendTo(nil), nil
}
