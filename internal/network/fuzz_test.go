package network

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// FuzzFrameBody fuzzes the two decoders that read a peer's bytes off a
// TCP connection. A message built from the fuzz input must round-trip
// through appendFrame/readFrame consuming exactly its own bytes whatever
// follows it on the stream, and every cut inside it must be refused. The
// raw input is also fed straight to readFrame and parseFrameBody: neither
// may panic, a declared body beyond maxFrameBody must be refused as too
// large before anything is read for it, a truncated body must not cost
// more memory than the bytes that did arrive, and whatever still parses
// must re-encode to a frame that decodes to the same message.
func FuzzFrameBody(f *testing.F) {
	// Seeds built by the encoder; the committed corpus under testdata/fuzz
	// holds the TestFrameRejectsCorrupt cases as literal bytes.
	good := appendFrame(nil, &Message{From: "a", To: "b", Kind: "q.prepare", Payload: []byte("x")})
	f.Add("a", "b", "q.prepare", []byte("x"), good)
	f.Add("src", "dst", "custom.kind", []byte{0, 1, 2}, good[:len(good)-1])
	// The largest body a header may declare, and nothing behind it.
	f.Add("a", "b", "q.abort", []byte{}, binary.AppendUvarint([]byte{wire.FrameMagic}, maxFrameBody))
	f.Fuzz(func(t *testing.T, from, to, kind string, payload, raw []byte) {
		want := Message{From: from, To: to, Kind: kind, Payload: payload}
		frame := appendFrame(nil, &want)
		br := bufio.NewReader(bytes.NewReader(append(append([]byte{}, frame...), raw...)))
		got, err := readFrame(br)
		if err != nil {
			t.Fatalf("valid frame refused: %v", err)
		}
		if !sameMessage(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		if rest, _ := io.ReadAll(br); !bytes.Equal(rest, raw) {
			t.Fatalf("readFrame left %d bytes on the stream, want the %d that follow the frame", len(rest), len(raw))
		}
		cut := len(raw) % len(frame)
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(frame[:cut]))); err == nil {
			t.Fatalf("frame truncated at %d of %d accepted", cut, len(frame))
		}

		// declared is the body length raw's header claims, 0 if it has none.
		var declared uint64
		if len(raw) > 0 && raw[0] == wire.FrameMagic {
			if n, w := binary.Uvarint(raw[1:]); w > 0 {
				declared = n
			}
		}
		var before, after runtime.MemStats
		if declared > frameReadStep {
			runtime.ReadMemStats(&before)
		}
		msg, err := readFrame(bufio.NewReader(bytes.NewReader(raw)))
		if declared > frameReadStep {
			// What a connection may make this node allocate is bounded by
			// what it sent (append doubling, plus a few read steps and the
			// bufio buffer), not by what its header declares.
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(raw)+4*frameReadStep); got > limit {
				t.Fatalf("readFrame of %d bytes declaring %d allocated %d, want <= %d", len(raw), declared, got, limit)
			}
		}
		if err == nil {
			checkReencodes(t, msg)
		} else if declared > maxFrameBody && !errors.Is(err, wire.ErrMessageTooLarge) {
			t.Fatalf("declared body of %d bytes: %v, want ErrMessageTooLarge", declared, err)
		}
		if msg, err := parseFrameBody(raw); err == nil {
			checkReencodes(t, msg)
		}
	})
}

func sameMessage(a, b Message) bool {
	return a.From == b.From && a.To == b.To && a.Kind == b.Kind && bytes.Equal(a.Payload, b.Payload)
}

// checkReencodes: a message that parsed out of arbitrary bytes must
// survive its own canonical encoding.
func checkReencodes(t *testing.T, msg Message) {
	t.Helper()
	again, err := readFrame(bufio.NewReader(bytes.NewReader(appendFrame(nil, &msg))))
	if err != nil || !sameMessage(again, msg) {
		t.Fatalf("re-encoding of parsed %+v: %+v, %v", msg, again, err)
	}
}
