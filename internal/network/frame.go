package network

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/wire"
)

// Binary transport frame: the unit the TCP endpoint coalesces. Layout:
//
//	wire.FrameMagic | uvarint(bodyLen) | body
//	body = kindCode [kindString] | from | to | payload
//
// where strings and payload are uvarint-length-prefixed. kindCode maps
// the well-known protocol kinds to one byte (code 0 means "kind string
// follows inline", the escape hatch for kinds outside the table).
//
// The table is part of the wire format: never reuse or renumber a code.
// It intentionally holds literal strings — the protocol/node packages
// sit above network in the import graph, and a cross-check test in
// internal/node asserts the table matches their kind constants.
var frameKinds = [...]string{
	1:  "q.prepare",
	2:  "q.prepare.ack",
	3:  "q.commit",
	4:  "q.commit.ack",
	5:  "q.abort",
	6:  "q.abort.ack",
	7:  "txn.query",
	8:  "txn.status",
	9:  "rce.exec",
	10: "rce.exec.ack",
	11: "rce.commit",
	12: "rce.commit.ack",
	13: "rce.abort",
	14: "rce.abort.ack",
	15: "agent.launch",
	16: "agent.launch.ack",
	17: "agent.done",
	18: "agent.done.ack",
	19: "member.announce",
	20: "ctl.batch",
	21: "query.batch",
}

// frameKindCodes is the inverse of frameKinds.
var frameKindCodes = func() map[string]byte {
	m := make(map[string]byte, len(frameKinds))
	for code, kind := range frameKinds {
		if kind != "" {
			m[kind] = byte(code)
		}
	}
	return m
}()

// FrameKindCode returns the one-byte code of kind and whether the kind
// is in the static table (exported for the table cross-check test).
func FrameKindCode(kind string) (byte, bool) {
	c, ok := frameKindCodes[kind]
	return c, ok
}

// maxFrameBody bounds a declared frame body: the payload cap plus room
// for routing fields. Larger declarations poison the connection.
const maxFrameBody = wire.MaxMessageSize + 4096

// frameReadStep is how much of a declared body readFrame allocates ahead
// of the bytes it has received.
const frameReadStep = 1 << 20

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendFrame appends one framed message to buf (append idiom, so a
// pending write buffer accumulates many frames back to back).
func appendFrame(buf []byte, msg *Message) []byte {
	code, ok := frameKindCodes[msg.Kind]
	if !ok {
		code = 0
	}
	bodyLen := 1 +
		uvarintLen(uint64(len(msg.From))) + len(msg.From) +
		uvarintLen(uint64(len(msg.To))) + len(msg.To) +
		uvarintLen(uint64(len(msg.Payload))) + len(msg.Payload)
	if code == 0 {
		bodyLen += uvarintLen(uint64(len(msg.Kind))) + len(msg.Kind)
	}
	buf = append(buf, wire.FrameMagic)
	buf = binary.AppendUvarint(buf, uint64(bodyLen))
	buf = append(buf, code)
	if code == 0 {
		buf = wire.AppendString(buf, msg.Kind)
	}
	buf = wire.AppendString(buf, msg.From)
	buf = wire.AppendString(buf, msg.To)
	return wire.AppendBytes(buf, msg.Payload)
}

// parseFrameBody decodes one frame body. The payload aliases b, which
// must be a fresh per-frame buffer the caller will not reuse.
func parseFrameBody(b []byte) (Message, error) {
	r := wire.NewReader(b)
	var msg Message
	if code := r.Byte(); code == 0 {
		msg.Kind = r.String()
	} else if int(code) < len(frameKinds) && frameKinds[code] != "" {
		msg.Kind = frameKinds[code]
	} else {
		r.Fail("unknown kind code %d", code)
	}
	msg.From, msg.To, msg.Payload = r.String(), r.String(), r.Bytes()
	if err := r.Done(); err != nil {
		return Message{}, err
	}
	return msg, nil
}

// readFrame reads one complete frame from br. Any parse failure poisons
// the stream (framing is lost): the caller drops the connection and the
// peer re-dials.
func readFrame(br *bufio.Reader) (Message, error) {
	magic, err := br.ReadByte()
	if err != nil {
		return Message{}, err
	}
	if magic != wire.FrameMagic {
		return Message{}, fmt.Errorf("%w: bad frame magic 0x%02x", wire.ErrCorrupt, magic)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return Message{}, fmt.Errorf("%w: frame length: %v", wire.ErrCorrupt, err)
	}
	if n > maxFrameBody {
		return Message{}, fmt.Errorf("%w: frame of %d bytes", wire.ErrMessageTooLarge, n)
	}
	// The body buffer grows with the bytes that actually arrive: a header
	// that declares a huge body and then stalls or hangs up costs the peer
	// its bytes, not this node an allocation. A frame of up to one step is
	// still one exact-size allocation.
	var body []byte
	for uint64(len(body)) < n {
		step := int(min(n-uint64(len(body)), frameReadStep))
		body = append(body, make([]byte, step)...)
		if _, err := io.ReadFull(br, body[len(body)-step:]); err != nil {
			return Message{}, err
		}
	}
	return parseFrameBody(body)
}
