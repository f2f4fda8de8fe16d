// Package repl replicates a stable store's committed batches to follower
// replicas on other nodes, so a *permanently* lost node's stable state —
// its agent input queue, rollback logs and 2PC decision records — can be
// promoted on a survivor and recovery can run the normal
// replay-stable-survivors-as-events path.
//
// The paper (§4.3) assumes every fault is temporary: a crashed node
// returns with its disk. This layer removes that assumption. Each node's
// store is a shard with one primary (the owning node) and K followers.
// The primary assigns every committed group-commit batch a log sequence
// number (LSN), persists it together with the batch, and streams the
// batch to the followers as CRC-framed records over a dedicated
// replication endpoint ("<node>!repl"). Followers apply records in LSN
// order into their own replica store and acknowledge cumulatively; gaps
// and restarts heal through primary-driven resends and, when the
// retained tail no longer reaches back far enough, full snapshot
// manifests. Acks are configurable: asynchronous (primary-only
// durability) or a quorum of copies before Apply returns — the quorum
// mode is what makes 2PC decision records survive a coordinator's
// permanent death, because the decision replicates before any
// participant can learn it.
//
// Promotion bumps an epoch persisted with the replica: the surviving
// copy with the highest (epoch, LSN) becomes the new authoritative store
// and the remaining followers converge on it via snapshots.
package repl

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"

	"repro/internal/stable"
)

// Wire frame kinds of the replication plane.
const (
	// KindAppend carries one committed record (an encoded Record).
	KindAppend = "repl.append"
	// KindAck carries a follower's cumulative durable position (an
	// encoded Ack).
	KindAck = "repl.ack"
	// KindSnapshot carries a full state manifest for catch-up (an
	// encoded Snapshot).
	KindSnapshot = "repl.snapshot"
)

// Suffix distinguishes a node's replication endpoint from its protocol
// endpoint. The network layer treats both as the same host for
// partitions and crashes.
const Suffix = "!repl"

// Endpoint returns the replication endpoint name of a node.
func Endpoint(node string) string { return node + Suffix }

// NodeOf returns the node owning a replication endpoint name.
func NodeOf(endpoint string) string {
	return strings.TrimSuffix(endpoint, Suffix)
}

// Record is one committed batch of the primary's log.
type Record struct {
	Shard string // owning node of the replicated store
	Epoch uint64 // promotion epoch the record was written in
	LSN   uint64 // position in the shard's log, starting at 1
	Ops   []stable.Op
}

// Ack is a follower's cumulative durable position for one shard.
type Ack struct {
	Shard string
	Epoch uint64
	LSN   uint64
}

// Snapshot is a full manifest of a shard's state at (Epoch, LSN), used
// when a follower is too far behind the retained record tail (or on the
// wrong epoch) to catch up record by record.
type Snapshot struct {
	Shard string
	Epoch uint64
	LSN   uint64
	Ops   []stable.Op // puts only
}

// Frame layout: u32 body length | u32 CRC-32 (IEEE) of body | body.
// The length prefix is redundant over a datagram transport but keeps the
// frames self-delimiting on a stream, and the CRC rejects corruption
// independent of the transport.

func frame(body []byte) []byte {
	out := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(body))
	return append(out, body...)
}

func unframe(payload []byte) ([]byte, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("repl: frame truncated (%d bytes)", len(payload))
	}
	n := binary.BigEndian.Uint32(payload[0:4])
	body := payload[8:]
	if uint32(len(body)) != n {
		return nil, fmt.Errorf("repl: frame length mismatch (header %d, got %d)", n, len(body))
	}
	if crc := crc32.ChecksumIEEE(body); crc != binary.BigEndian.Uint32(payload[4:8]) {
		return nil, fmt.Errorf("repl: frame CRC mismatch")
	}
	return body, nil
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendOps encodes ops as: count, then per op key and value, where the
// value length is shifted by one so 0 encodes a delete (nil value).
func appendOps(b []byte, ops []stable.Op) []byte {
	b = appendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = appendString(b, op.Key)
		if op.Value == nil {
			b = appendUvarint(b, 0)
			continue
		}
		b = appendUvarint(b, uint64(len(op.Value))+1)
		b = append(b, op.Value...)
	}
	return b
}

type reader struct {
	b   []byte
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("repl: bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.err = fmt.Errorf("repl: string truncated")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *reader) ops() []stable.Op {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	// An op takes at least two bytes (key length, value length), so the
	// slice sized below is bounded by the frame, not by the count it claims.
	if n > uint64(len(r.b))/2 {
		r.err = fmt.Errorf("repl: op count %d exceeds frame", n)
		return nil
	}
	ops := make([]stable.Op, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		key := r.str()
		vl := r.uvarint()
		if r.err != nil {
			return nil
		}
		if vl == 0 {
			ops = append(ops, stable.Del(key))
			continue
		}
		vl--
		if uint64(len(r.b)) < vl {
			r.err = fmt.Errorf("repl: value truncated")
			return nil
		}
		val := make([]byte, vl)
		copy(val, r.b[:vl])
		r.b = r.b[vl:]
		ops = append(ops, stable.Put(key, val))
	}
	return ops
}

// EncodeRecord serializes a record into a CRC-framed payload.
func EncodeRecord(rec Record) []byte {
	body := appendString(nil, rec.Shard)
	body = appendUvarint(body, rec.Epoch)
	body = appendUvarint(body, rec.LSN)
	body = appendOps(body, rec.Ops)
	return frame(body)
}

// DecodeRecord parses a payload produced by EncodeRecord.
func DecodeRecord(payload []byte) (Record, error) {
	body, err := unframe(payload)
	if err != nil {
		return Record{}, err
	}
	r := reader{b: body}
	rec := Record{Shard: r.str(), Epoch: r.uvarint(), LSN: r.uvarint()}
	rec.Ops = r.ops()
	return rec, r.err
}

// EncodeAck serializes an ack into a CRC-framed payload.
func EncodeAck(ack Ack) []byte {
	body := appendString(nil, ack.Shard)
	body = appendUvarint(body, ack.Epoch)
	body = appendUvarint(body, ack.LSN)
	return frame(body)
}

// DecodeAck parses a payload produced by EncodeAck.
func DecodeAck(payload []byte) (Ack, error) {
	body, err := unframe(payload)
	if err != nil {
		return Ack{}, err
	}
	r := reader{b: body}
	ack := Ack{Shard: r.str(), Epoch: r.uvarint(), LSN: r.uvarint()}
	return ack, r.err
}

// EncodeSnapshot serializes a snapshot into a CRC-framed payload.
func EncodeSnapshot(snap Snapshot) []byte {
	body := appendString(nil, snap.Shard)
	body = appendUvarint(body, snap.Epoch)
	body = appendUvarint(body, snap.LSN)
	body = appendOps(body, snap.Ops)
	return frame(body)
}

// DecodeSnapshot parses a payload produced by EncodeSnapshot.
func DecodeSnapshot(payload []byte) (Snapshot, error) {
	body, err := unframe(payload)
	if err != nil {
		return Snapshot{}, err
	}
	r := reader{b: body}
	snap := Snapshot{Shard: r.str(), Epoch: r.uvarint(), LSN: r.uvarint()}
	snap.Ops = r.ops()
	return snap, r.err
}
