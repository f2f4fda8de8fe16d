package protocol

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// FuzzWireRoundTrip differentially fuzzes the binary codec against gob
// as the reference: for every fast-path message type, a value built from
// the fuzz input must decode to the same Go value from either encoding.
// The same input also drives rejection checks: gob bytes handed to the
// wire entry point Decode must be refused as corrupt (these types have no
// gob form on the wire), truncated binary frames must error, bit-flipped
// frames must never panic (and if one still parses, its re-encoding must
// be stable), and arbitrary bytes fed straight into the decoders must be
// handled gracefully.
func FuzzWireRoundTrip(f *testing.F) {
	// Gob-encoded acks and controls as raw input: what a pre-binary peer
	// would send.
	for _, m := range []any{&AckMsg{TxnID: "n1#7", OK: true}, &CtlMsg{TxnID: "n1#7"}} {
		gobEnc, err := wire.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add("n1#7", "", "", []byte{}, true, byte(0), gobEnc)
	}
	f.Add("n1#7", "agent-3", "", []byte("container"), true, byte(0), []byte{0x90, 0x01})
	f.Add("", "", "node recovering", []byte{}, false, byte(3), []byte("not binary"))
	f.Add("txn", "e", "x", []byte{0x90, 0x05, 0xff}, true, byte(0xff), []byte{0x90})
	f.Fuzz(func(t *testing.T, txn, entry, errStr string, data []byte, ok bool, sel byte, raw []byte) {
		var ops []*core.OpEntry
		if sel&0x08 == 0 {
			ops = []*core.OpEntry{{
				Kind:   core.OpKind(sel % 4),
				Op:     entry,
				Params: core.Params{txn: data, errStr: nil},
			}}
			if sel&0x10 != 0 {
				ops = append(ops, &core.OpEntry{Op: "second"})
			}
		}
		msgs := []struct {
			msg  wire.BinaryMessage
			zero func() wire.BinaryMessage
		}{
			{&PrepareMsg{TxnID: txn, EntryID: entry, Mark: uint64(sel) * uint64(len(data)), Parties: partyList(errStr, entry, sel>>1), Data: data}, func() wire.BinaryMessage { return &PrepareMsg{} }},
			{&MarkMsg{Mark: uint64(sel) << (len(txn) % 64)}, func() wire.BinaryMessage { return &MarkMsg{} }},
			{&AckMsg{TxnID: txn, OK: ok, Err: errStr}, func() wire.BinaryMessage { return &AckMsg{} }},
			{&CtlMsg{TxnID: txn}, func() wire.BinaryMessage { return &CtlMsg{} }},
			{&StatusMsg{TxnID: txn, Committed: ok}, func() wire.BinaryMessage { return &StatusMsg{} }},
			{&RCEExecMsg{TxnID: txn, Decider: errStr, Ops: ops}, func() wire.BinaryMessage { return &RCEExecMsg{} }},
		}
		for _, tc := range msgs {
			gobEnc, err := wire.Encode(tc.msg)
			if err != nil {
				t.Fatalf("%T: gob encode: %v", tc.msg, err)
			}
			binEnc := tc.msg.AppendTo(nil)
			if err := Decode(gobEnc, tc.zero()); !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("%T: Decode of gob bytes = %v, want wire.ErrCorrupt", tc.msg, err)
			}
			viaGob, viaBin := tc.zero(), tc.zero()
			if err := wire.Decode(gobEnc, viaGob); err != nil {
				t.Fatalf("%T: gob decode: %v", tc.msg, err)
			}
			if err := Decode(binEnc, viaBin); err != nil {
				t.Fatalf("%T: binary decode: %v", tc.msg, err)
			}
			if !reflect.DeepEqual(viaGob, viaBin) {
				t.Fatalf("%T: wire formats disagree\n gob %#v\n bin %#v", tc.msg, viaGob, viaBin)
			}

			// Every strict prefix of a valid frame must be rejected: all
			// fields are mandatory and decoders demand full consumption.
			// Checking each prefix is quadratic, so long frames are
			// sampled (short ones, where the interesting boundaries live,
			// are covered exhaustively; TestBinaryCodecRejectsCorruptInput
			// does the exhaustive sweep on a fixed message).
			stride := 1 + len(binEnc)/64
			for i := 0; i < len(binEnc); i += stride {
				if err := tc.zero().DecodeFrom(binEnc[:i]); err == nil {
					t.Fatalf("%T: truncation at %d/%d accepted", tc.msg, i, len(binEnc))
				}
			}

			// Bit flips: decoding must never panic; an encoding that still
			// parses must re-encode to something that parses to the same
			// value (no decoder state leaks between fields).
			if len(binEnc) > 0 {
				flipped := append([]byte(nil), binEnc...)
				pos := int(sel) % len(flipped)
				flipped[pos] ^= 1 << (sel % 8)
				mutant := tc.zero()
				if err := mutant.DecodeFrom(flipped); err == nil {
					again := tc.zero()
					if err := again.DecodeFrom(mutant.AppendTo(nil)); err != nil {
						t.Fatalf("%T: re-encoding of accepted mutant rejected: %v", tc.msg, err)
					}
					if !reflect.DeepEqual(mutant, again) {
						t.Fatalf("%T: mutant re-encode not stable", tc.msg)
					}
				}
			}

			// Arbitrary bytes straight into the decoder: error or success,
			// never a panic or runaway allocation — and anything that does
			// not open with the binary version byte is corrupt.
			_ = tc.zero().DecodeFrom(raw)
			err = Decode(raw, tc.zero())
			if (len(raw) == 0 || raw[0] != wire.BinaryVersion) && !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("%T: Decode of non-binary bytes = %v, want wire.ErrCorrupt", tc.msg, err)
			}
		}
	})
}

// partyList derives a prepare's parties from the fuzz input: nil, one
// string or two.
func partyList(first, second string, sel byte) []string {
	if sel&0x20 != 0 {
		return nil
	}
	parts := []string{first}
	if sel&0x40 != 0 {
		parts = append(parts, second)
	}
	return parts
}
