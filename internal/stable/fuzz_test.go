package stable

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// FuzzStagedMarker fuzzes the one record the queue parses off a disk, the
// marker of a prepared insertion: parseStaged never panics, allocates in
// proportion to its input whatever ID length the input declares, accepts
// only what re-encodes to the same bytes, and rejects a record of the
// retired type 0x20 (the prepared insertion that carried its container).
func FuzzStagedMarker(f *testing.F) {
	f.Add(appendStaged(nil, 7, "tenant/a/agent"))
	f.Add(appendStaged(nil, 1<<40, ""))
	f.Add([]byte{wire.BinaryVersion, typeStagedRecord, 0, 1, 'a', wire.BinaryVersion, 0x11})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seq, id, err := parseStaged(raw)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(raw)+1<<16); n > limit {
			t.Fatalf("parsing %d bytes allocated %d, want <= %d", len(raw), n, limit)
		}
		retired := IsRetiredStagedRecord(raw)
		if err != nil {
			return
		}
		if retired {
			t.Fatalf("accepted a record of the retired type 0x20: % x", raw)
		}
		if again := appendStaged(nil, seq, id); !bytes.Equal(again, raw) {
			t.Fatalf("marker does not re-encode to itself:\n got % x\nwant % x", again, raw)
		}
	})
}
