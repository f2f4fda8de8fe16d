package repl

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/stable"
)

// checkAllocs runs decode over size bytes of input and fails if it
// allocated out of proportion to them: a decoder may not size a buffer
// from a number it merely read. The factor is what a well-formed frame
// can need — a 40-byte stable.Op per two frame bytes, plus the key and
// value bytes it copies out.
func checkAllocs(t *testing.T, size int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*size+1<<20); n > limit {
		t.Fatalf("decoding %d bytes allocated %d, want <= %d", size, n, limit)
	}
}

// roundTrip decodes payload under the allocation ceiling and, if it is
// accepted, checks that the value survives an encode/decode round trip.
func roundTrip[T any](t *testing.T, payload []byte, decode func([]byte) (T, error), encode func(T) []byte) {
	t.Helper()
	var v T
	var err error
	checkAllocs(t, len(payload), func() { v, err = decode(payload) })
	if err != nil {
		return
	}
	if again, err := decode(encode(v)); err != nil || !reflect.DeepEqual(again, v) {
		t.Fatalf("%T does not round-trip: %v\n got %+v\nwant %+v", v, err, again, v)
	}
}

// FuzzReplFrame fuzzes the decoders of the three frames a replication
// peer sends: none may panic or allocate out of proportion to the frame,
// and whatever one accepts survives an encode/decode round trip. With
// framed set the bytes are a frame body — followed by 2^padLog-1 bytes
// that parse as nothing — and get a correct length and CRC, so the parser
// behind the checksum sees them; otherwise they are the raw payload.
func FuzzReplFrame(f *testing.F) {
	ops := []stable.Op{stable.Put("queue/0001", []byte("agent")), stable.Put("empty", []byte{}), stable.Del("gone")}
	rec := EncodeRecord(Record{Shard: "p", Epoch: 2, LSN: 7, Ops: ops})
	flipped := append([]byte{}, rec...)
	flipped[len(flipped)-2] ^= 0x10
	// With its padding, a CRC-valid 1 MiB frame declaring one op per
	// remaining byte, none of which parses.
	overrun := binary.AppendUvarint([]byte{1, 'p', 2, 7}, 1<<20-1)
	f.Add(rec, uint8(0), false)
	f.Add(EncodeAck(Ack{Shard: "p", Epoch: 2, LSN: 7}), uint8(0), false)
	f.Add(EncodeSnapshot(Snapshot{Shard: "p", Epoch: 2, LSN: 7, Ops: ops[:2]}), uint8(0), false)
	f.Add(rec[:len(rec)-3], uint8(0), false)
	f.Add(flipped, uint8(0), false)
	f.Add(flipped[8:], uint8(0), true)
	f.Add(rec[8:len(rec)-3], uint8(3), true)
	f.Add(overrun, uint8(20), true)
	f.Add([]byte{}, uint8(0), true)
	f.Fuzz(func(t *testing.T, data []byte, padLog uint8, framed bool) {
		payload := data
		if framed {
			pad := bytes.Repeat([]byte{0xff}, 1<<(padLog%21)-1)
			payload = frame(append(append([]byte{}, data...), pad...))
		}
		roundTrip(t, payload, DecodeRecord, EncodeRecord)
		roundTrip(t, payload, DecodeAck, EncodeAck)
		roundTrip(t, payload, DecodeSnapshot, EncodeSnapshot)
	})
}
