package stable

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// retiredMarker builds a <prefix>s/ marker as commit 6471191 wrote it:
// 0x90 0x21, the seq and the ID of the entry it hid.
func retiredMarker(seq uint64, id string) []byte {
	return wire.AppendString(wire.AppendUvarint([]byte{wire.BinaryVersion, 0x21}, seq), id)
}

// FuzzStagedMarker fuzzes what the queue hands the start-up refusal for a
// <prefix>s/ key, the retired prepared insertions: whatever the value
// holds — a 0x21 marker, a 0x20 record carrying a container, garbage —
// Each passes it on unread under its key with no agent ID, so node.New
// can refuse the store, and IsRetiredStagedRecord never panics and
// allocates in proportion to its input.
func FuzzStagedMarker(f *testing.F) {
	f.Add(retiredMarker(7, "tenant/a/agent"))
	f.Add(retiredMarker(1<<40, ""))
	f.Add([]byte{wire.BinaryVersion, typeStagedRecord, 0, 1, 'a', wire.BinaryVersion, 0x11})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = IsRetiredStagedRecord(raw)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(raw)+1<<16); n > limit {
			t.Fatalf("checking %d bytes allocated %d, want <= %d", len(raw), n, limit)
		}
		s := NewMemStore(nil)
		raw = append([]byte{}, raw...) // a nil value would be a delete
		if err := s.Apply(Put("q/s/co#1", raw)); err != nil {
			t.Fatal(err)
		}
		var seen int
		err := NewQueue(s, "q/").Each(func(key, id string, data []byte) error {
			seen++
			if key != "q/s/co#1" || id != "" || !bytes.Equal(data, raw) {
				t.Fatalf("Each passed %q, %q, % x; want the marker key, no ID and its value", key, id, data)
			}
			return nil
		})
		if err != nil || seen != 1 {
			t.Fatalf("Each saw %d records, %v; want the marker once", seen, err)
		}
	})
}
