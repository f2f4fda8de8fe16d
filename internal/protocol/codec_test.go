package protocol

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// fastPathMessages returns one populated value of every message type with
// a binary codec, plus a fresh-zero factory for decoding into.
func fastPathMessages() []struct {
	name string
	msg  wire.BinaryMessage
	zero func() wire.BinaryMessage
} {
	return []struct {
		name string
		msg  wire.BinaryMessage
		zero func() wire.BinaryMessage
	}{
		{"prepare", &PrepareMsg{TxnID: "n1#7", EntryID: "agent-3", Data: []byte("container-bytes")},
			func() wire.BinaryMessage { return &PrepareMsg{} }},
		{"ack", &AckMsg{TxnID: "n1#7", OK: false, Err: "node recovering"},
			func() wire.BinaryMessage { return &AckMsg{} }},
		{"ctl", &CtlMsg{TxnID: "n1#7"},
			func() wire.BinaryMessage { return &CtlMsg{} }},
		{"status", &StatusMsg{TxnID: "n1#7", Committed: true},
			func() wire.BinaryMessage { return &StatusMsg{} }},
		{"rce-exec", &RCEExecMsg{TxnID: "n1#7", Ops: []*core.OpEntry{
			{Kind: core.OpResource, Op: "withdraw", Params: core.Params{"amount": []byte("100"), "acct": []byte("a-9")}},
			{Kind: core.OpAgent, Op: "noop"},
		}}, func() wire.BinaryMessage { return &RCEExecMsg{} }},
		{"ctl-batch", &CtlBatchMsg{Items: []CtlBatchItem{
			{TxnID: "n1#7", Commit: true},
			{TxnID: "n1#9", RCE: true, Commit: true},
			{TxnID: "n2#1"},
		}}, func() wire.BinaryMessage { return &CtlBatchMsg{} }},
		{"query-batch", &QueryBatchMsg{TxnIDs: []string{"n1#7", "n2#4"}},
			func() wire.BinaryMessage { return &QueryBatchMsg{} }},
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	for _, tc := range fastPathMessages() {
		enc := tc.msg.AppendTo(nil)
		if enc[0] != wire.BinaryVersion {
			t.Fatalf("%s: encoding does not carry the binary version byte", tc.name)
		}
		got := tc.zero()
		if err := got.DecodeFrom(enc); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.msg) {
			t.Fatalf("%s: round trip mismatch\n got %#v\nwant %#v", tc.name, got, tc.msg)
		}
		// Decode must also route through the generic entry point.
		got2 := tc.zero()
		if err := Decode(enc, got2); err != nil {
			t.Fatalf("%s: Decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got2, tc.msg) {
			t.Fatalf("%s: Decode mismatch", tc.name)
		}
	}
}

// TestBinaryCodecGobEquivalence checks the binary codec against gob as
// the reference encoding: both round-trip to the same value. On the
// wire a binary-codec type has only the one format, so the same gob
// bytes handed to Decode must be rejected as corrupt.
func TestBinaryCodecGobEquivalence(t *testing.T) {
	for _, tc := range fastPathMessages() {
		gobEnc, err := wire.Encode(tc.msg)
		if err != nil {
			t.Fatalf("%s: gob encode: %v", tc.name, err)
		}
		if err := Decode(gobEnc, tc.zero()); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("%s: Decode of gob bytes = %v, want wire.ErrCorrupt", tc.name, err)
		}
		viaGob, viaBin := tc.zero(), tc.zero()
		if err := wire.Decode(gobEnc, viaGob); err != nil {
			t.Fatalf("%s: gob decode: %v", tc.name, err)
		}
		if err := Decode(tc.msg.AppendTo(nil), viaBin); err != nil {
			t.Fatalf("%s: binary decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(viaGob, viaBin) {
			t.Fatalf("%s: formats disagree\n gob %#v\n bin %#v", tc.name, viaGob, viaBin)
		}
	}
}

// TestBinaryCodecEmptyFieldsMatchGob pins the empty→nil convention: a gob
// round trip turns empty slices/maps into nil, and the binary decoders
// must produce the same shape or differential comparisons break.
func TestBinaryCodecEmptyFieldsMatchGob(t *testing.T) {
	src := &RCEExecMsg{TxnID: "t", Ops: []*core.OpEntry{{Op: "x", Params: core.Params{}}}}
	viaGob, viaBin := &RCEExecMsg{}, &RCEExecMsg{}
	gobEnc, err := wire.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Decode(gobEnc, viaGob); err != nil {
		t.Fatal(err)
	}
	if err := Decode(src.AppendTo(nil), viaBin); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaGob, viaBin) {
		t.Fatalf("empty-field shapes disagree\n gob %#v\n bin %#v", viaGob.Ops[0], viaBin.Ops[0])
	}

	p := &PrepareMsg{TxnID: "t", Data: []byte{}}
	dec := &PrepareMsg{}
	if err := dec.DecodeFrom(p.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if dec.Data != nil {
		t.Fatalf("empty Data must decode to nil, got %#v", dec.Data)
	}
}

func TestBinaryCodecZeroCopyData(t *testing.T) {
	enc := (&PrepareMsg{TxnID: "t", EntryID: "e", Data: []byte("payload")}).AppendTo(nil)
	var m PrepareMsg
	if err := m.DecodeFrom(enc); err != nil {
		t.Fatal(err)
	}
	if len(m.Data) == 0 || &m.Data[0] != &enc[len(enc)-len(m.Data)] {
		t.Fatal("PrepareMsg.Data must alias the input buffer")
	}
}

func TestBinaryCodecRejectsCorruptInput(t *testing.T) {
	enc := (&PrepareMsg{TxnID: "txn", EntryID: "e", Data: []byte("data")}).AppendTo(nil)
	// Every strict prefix must be rejected: all fields are mandatory and
	// the decoder demands full consumption.
	for i := 0; i < len(enc); i++ {
		var m PrepareMsg
		if err := m.DecodeFrom(enc[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// Wrong type byte.
	var ack AckMsg
	if err := ack.DecodeFrom(enc); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("type confusion: got %v", err)
	}
	// Declared op count beyond the buffer must fail before allocating.
	bad := append([]byte{wire.BinaryVersion, TypeRCEExec}, wire.AppendString(nil, "t")...)
	bad = wire.AppendUvarint(bad, 1<<62)
	var rce RCEExecMsg
	if err := rce.DecodeFrom(bad); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("giant op count: got %v", err)
	}
	// Binary payload routed into a type without a codec: those are gob,
	// which cannot parse it.
	var part Participant
	if err := Decode(enc, &part); err == nil {
		t.Fatal("codec-less target accepted a binary payload")
	}
}

func TestBinaryCodecDeterministicParams(t *testing.T) {
	m := &RCEExecMsg{TxnID: "t", Ops: []*core.OpEntry{{Op: "o", Params: core.Params{
		"b": []byte("2"), "a": []byte("1"), "c": []byte("3"),
	}}}}
	first := m.AppendTo(nil)
	for i := 0; i < 16; i++ {
		if !bytes.Equal(first, m.AppendTo(nil)) {
			t.Fatal("RCEExecMsg encoding must be deterministic (sorted Params keys)")
		}
	}
}

// TestBinaryCodecAllocs guards the acceptance budget: ≤2 allocs to decode
// a fast-path message (string copies only; []byte fields alias the input)
// and zero allocs to encode into a reused buffer.
func TestBinaryCodecAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	cases := []struct {
		name   string
		msg    wire.BinaryMessage
		zero   func() wire.BinaryMessage
		budget float64
	}{
		{"prepare", &PrepareMsg{TxnID: "n1#7", EntryID: "agent-3", Data: bytes.Repeat([]byte("x"), 512)},
			func() wire.BinaryMessage { return &PrepareMsg{} }, 2},
		{"ack", &AckMsg{TxnID: "n1#7", OK: true},
			func() wire.BinaryMessage { return &AckMsg{} }, 1},
		{"ctl", &CtlMsg{TxnID: "n1#7"},
			func() wire.BinaryMessage { return &CtlMsg{} }, 1},
		{"status", &StatusMsg{TxnID: "n1#7", Committed: true},
			func() wire.BinaryMessage { return &StatusMsg{} }, 1},
	}
	for _, tc := range cases {
		enc := tc.msg.AppendTo(nil)
		dst := tc.zero()
		if got := testing.AllocsPerRun(200, func() {
			if err := dst.DecodeFrom(enc); err != nil {
				t.Fatal(err)
			}
		}); got > tc.budget {
			t.Errorf("%s: decode allocates %.0f/op, budget %.0f", tc.name, got, tc.budget)
		}
		buf := make([]byte, 0, len(enc))
		if got := testing.AllocsPerRun(200, func() {
			buf = tc.msg.AppendTo(buf[:0])
		}); got > 0 {
			t.Errorf("%s: encode into reused buffer allocates %.0f/op", tc.name, got)
		}
	}
}
