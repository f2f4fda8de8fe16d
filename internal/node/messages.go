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

// EncodeContainer serializes a container for queue storage / transfer.
func EncodeContainer(c *Container) ([]byte, error) { return wire.Encode(c) }

// DecodeContainer deserializes a container.
func DecodeContainer(data []byte) (*Container, error) {
	var c Container
	if err := wire.Decode(data, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// launchMsg inserts a fresh agent container into the node's input queue.
type launchMsg struct {
	ID   string // request correlation + queue entry ID
	Data []byte
}

// doneMsg reports agent completion (or permanent failure) to its owner.
type doneMsg struct {
	AgentID string
	Failed  bool
	Reason  string
	Data    []byte // final agent container
}

// typeDone is doneMsg's binary type byte. The node-runtime partition is
// 0x10–0x1F (the protocol messages own 0x01–0x0F); never reuse a value.
const typeDone = 0x10

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
	typ, rest, err := wire.SplitBinary(data)
	if err != nil {
		return err
	}
	if typ != typeDone {
		return fmt.Errorf("%w: message type 0x%02x, want done 0x%02x", wire.ErrCorrupt, typ, typeDone)
	}
	if m.AgentID, rest, err = wire.ReadString(rest); err != nil {
		return err
	}
	if m.Failed, rest, err = wire.ReadBool(rest); err != nil {
		return err
	}
	if m.Reason, rest, err = wire.ReadString(rest); err != nil {
		return err
	}
	if m.Data, rest, err = wire.ReadBytes(rest); err != nil {
		return err
	}
	return wire.Done(rest)
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
	return wire.Encode(&launchMsg{ID: id, Data: container})
}

var _ = registerMessages()

func registerMessages() struct{} {
	wire.RegisterName("node.Container", &Container{})
	wire.RegisterName("node.launch", &launchMsg{})
	wire.RegisterName("node.done", &doneMsg{})
	return struct{}{}
}
