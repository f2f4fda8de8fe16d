package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/stable"
)

// specRecords cuts fuzz bytes into groups of ops. Each op starts with a
// control byte — bits 0-2 key length, bit 3 delete, bits 4-6 value
// length, bit 7 closes the record — followed by the key and value bytes
// (short when the input runs out).
func specRecords(spec []byte) [][]stable.Op {
	var recs [][]stable.Op
	var cur []stable.Op
	take := func(n int) []byte {
		n = min(n, len(spec))
		b := spec[:n:n]
		spec = spec[n:]
		return b
	}
	for len(spec) > 0 {
		c := take(1)[0]
		op := stable.Del(string(take(int(c & 7))))
		if c&8 == 0 {
			op.Value = append([]byte{}, take(int(c>>4&7))...)
		}
		cur = append(cur, op)
		if c&0x80 != 0 {
			recs = append(recs, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		recs = append(recs, cur)
	}
	return recs
}

// segmentBytes encodes groups the way the engine appends them.
func segmentBytes(t testing.TB, recs [][]stable.Op) []byte {
	var seg []byte
	for _, ops := range recs {
		rb, _, err := encodeRecord(ops)
		if err != nil {
			t.Fatal(err)
		}
		seg = append(seg, rb.b...)
		payloadPool.Put(rb)
	}
	return seg
}

// scanAll scans data as one whole segment, checking on the way that every
// reported location lies inside its own record and the record inside the
// data, and returns the ops as the stable.Ops they stand for.
func scanAll(t *testing.T, data []byte) (ops []stable.Op, end int64, err error) {
	t.Helper()
	end, err = scanRecords(bytes.NewReader(data), 0, int64(len(data)), func(op scanOp, recEnd int64) error {
		if recEnd > int64(len(data)) {
			t.Fatalf("record end %d past the %d-byte segment", recEnd, len(data))
		}
		if op.del {
			ops = append(ops, stable.Del(op.key))
			return nil
		}
		if op.valOff < recHeaderSize || op.valLen < 0 || op.valOff+op.valLen > recEnd {
			t.Fatalf("value [%d,+%d) outside its record ending at %d", op.valOff, op.valLen, recEnd)
		}
		ops = append(ops, stable.Put(op.key, append([]byte{}, data[op.valOff:op.valOff+op.valLen]...)))
		return nil
	})
	if end < 0 || end > int64(len(data)) {
		t.Fatalf("scan end %d outside the %d-byte segment", end, len(data))
	}
	return ops, end, err
}

// checkAllocs runs decode over size bytes of input and fails if it
// allocated out of proportion to them: a decoder may not size a buffer
// from a number it merely read.
func checkAllocs(t *testing.T, size int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*size+1<<20); n > limit {
		t.Fatalf("decoding %d bytes allocated %d, want <= %d", size, n, limit)
	}
}

// FuzzSegmentScan fuzzes the segment decoder recovery runs over whatever
// a crash left on disk: scanRecords/decodePayload must never panic or
// report a location outside its record, must size no buffer from a length
// word the segment cannot hold, and a run of valid records followed by
// arbitrary bytes must yield exactly those records first. Whatever the
// scan accepts is a clean segment of its own: cut at the returned offset,
// it rescans to the same ops with no error.
func FuzzSegmentScan(f *testing.F) {
	// One record of each op shape, then the torn-write shapes of
	// torn_test.go as the tail: a cut record, a flipped byte, a zero-filled
	// tail, and a length word pointing far past the end.
	rec := segmentBytes(f, [][]stable.Op{{stable.Put("overwritten", []byte("final")), stable.Put("late", []byte("arrival")), stable.Del("k0")}})
	flipped := append([]byte{}, rec...)
	flipped[len(flipped)-3] ^= 0x01
	spec := []byte{0x32, 'k', '1', 'v', '1', '!', 0x8a, 'k', '0'}
	f.Add(spec, []byte{})
	f.Add(spec, rec)
	f.Add(spec, rec[:recHeaderSize])
	f.Add(spec, rec[:len(rec)-1])
	f.Add(spec, flipped)
	f.Add(spec, make([]byte, 64))
	f.Add([]byte{}, []byte{0xff, 0xff, 0xff, 0x3f, 0, 0, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, spec, tail []byte) {
		recs := specRecords(spec)
		prefix := segmentBytes(t, recs)
		var want []stable.Op
		for _, ops := range recs {
			want = append(want, ops...)
		}
		data := append(append([]byte{}, prefix...), tail...)

		var got []stable.Op
		var end int64
		var err error
		scan := func() { got, end, err = scanAll(t, data) }
		// A tail that opens with a large length word: the scan may allocate
		// in proportion to the segment, never to the word.
		if len(tail) >= 4 && binary.LittleEndian.Uint32(tail) > 1<<20 {
			checkAllocs(t, len(data), scan)
		} else {
			scan()
		}
		if end < int64(len(prefix)) {
			t.Fatalf("scan stopped at %d inside the %d-byte valid prefix: %v", end, len(prefix), err)
		}
		if err == nil && end != int64(len(data)) {
			t.Fatalf("clean scan ended at %d of %d", end, len(data))
		}
		if len(got) < len(want) || !reflect.DeepEqual(got[:len(want)], want) {
			t.Fatalf("ops of the valid prefix:\n got %v\nwant %v", got, want)
		}
		if err != nil && !errors.Is(err, errTorn) {
			// A record whose CRC holds and whose payload does not parse may
			// have reported some of its ops before the error; recovery
			// refuses the store, so only the bounds checks apply to them.
			return
		}
		again, end2, err := scanAll(t, data[:end])
		if err != nil || end2 != end || !reflect.DeepEqual(again, got) {
			t.Fatalf("rescan of the accepted %d bytes: end %d, err %v\n got %v\nwant %v", end, end2, err, again, got)
		}
	})
}

// FuzzCheckpointLoad fuzzes the checkpoint decoder: loadCheckpoint must
// never panic or size the index from a count the file cannot hold, a
// refused file yields no index at all, and an accepted one is a complete
// checkpoint — writing what was loaded and loading that
// gives the same index and position. With fixCRC the trailer is
// recomputed so the parser behind the checksum sees the mutated body.
func FuzzCheckpointLoad(f *testing.F) {
	dir := f.TempDir()
	index := map[string]loc{"a": {seg: 1, voff: 20, vlen: 3}, "queue/0001": {seg: 2, voff: 4096, vlen: 0}}
	if err := writeCheckpoint(dir, ckptPos{seg: 2, off: 8192}, index, nil); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, ckptName))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte{}, valid...)
	flipped[len(ckptMagic)+3] ^= 0x40
	overrun := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(overrun[len(ckptMagic)+12:], 1<<24) // entry count
	f.Add(valid, false)
	f.Add(valid[:len(valid)/2], false)
	f.Add(valid[:len(valid)/2], true)
	f.Add(flipped, false)
	f.Add(flipped, true)
	f.Add(overrun, true)
	f.Add([]byte("WALCKPT1"), true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC && len(data) >= 4 {
			data = append([]byte{}, data...)
			body := data[:len(data)-4]
			binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
		}
		if err := os.WriteFile(filepath.Join(dir, ckptName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var index map[string]loc
		var pos ckptPos
		var err error
		checkAllocs(t, len(data), func() { index, pos, err = loadCheckpoint(dir) })
		if err != nil {
			if index != nil || pos != (ckptPos{}) {
				t.Fatalf("refused checkpoint (%v) still returned %d entries at %+v", err, len(index), pos)
			}
			return
		}
		if err := writeCheckpoint(dir, pos, index, nil); err != nil {
			t.Fatal(err)
		}
		index2, pos2, err := loadCheckpoint(dir)
		if err != nil || pos2 != pos || !reflect.DeepEqual(index2, index) {
			t.Fatalf("accepted checkpoint does not round-trip: %v\n got %v at %+v\nwant %v at %+v", err, index2, pos2, index, pos)
		}
	})
}
