package txn

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stable"
	"repro/internal/wire"
)

// preparedBranch prepares a branch holding a put, an empty put and a
// delete, and returns the record Prepare wrote.
func preparedBranch(t testing.TB) (ops []stable.Op, raw []byte) {
	t.Helper()
	store := stable.NewMemStore(nil)
	m, err := NewManager("n1", store)
	if err != nil {
		t.Fatal(err)
	}
	tx := m.BeginWithID("co#7")
	ops = []stable.Op{stable.Put("res/bank/b", []byte{0x90, 0x30, 1}), stable.Put("empty", []byte{}), stable.Del("done/x")}
	tx.AddCommitOps(ops...)
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	raw, ok, err := store.Get(BranchPrefix + "co#7")
	if err != nil || !ok {
		t.Fatalf("branch record: %v %v", ok, err)
	}
	return ops, raw
}

// TestBranchRecordRoundTrip: the record keeps every op, an empty put
// apart from a delete, and a gob record of commit 60b3006 (testdata,
// written by that commit's Prepare) is refused as corrupt by
// ResolveBranch, which leaves it in place. (The refusal by name at node
// start is node's TestRefusesGobContainers.)
func TestBranchRecordRoundTrip(t *testing.T) {
	ops, raw := preparedBranch(t)
	decider, got, err := parseBranch(raw)
	if err != nil || decider != "" || !reflect.DeepEqual(got, ops) {
		t.Fatalf("parseBranch = %q, %#v, %v; want %#v", decider, got, err, ops)
	}
	delegated := appendBranch(nil, "d", ops)
	if decider, got, err := parseBranch(delegated); err != nil || decider != "d" || !reflect.DeepEqual(got, ops) {
		t.Fatalf("parseBranch(delegated) = %q, %#v, %v; want d, %#v", decider, got, err, ops)
	}
	old, err := os.ReadFile(filepath.Join("testdata", "branch-gob-60b3006.bin"))
	if err != nil {
		t.Fatal(err)
	}
	m, store := newMgr(t)
	if err := store.Apply(stable.Put(BranchPrefix+"co#7", old)); err != nil {
		t.Fatal(err)
	}
	if err := m.ResolveBranch("co#7", true); !errors.Is(err, wire.ErrCorrupt) || !strings.Contains(err.Error(), "co#7") {
		t.Errorf("ResolveBranch on a gob record = %v, want wire.ErrCorrupt naming the branch", err)
	}
	if ids, _ := m.InDoubtBranches(); len(ids) != 1 {
		t.Errorf("in-doubt branches after the refusal = %v, want the gob one", ids)
	}
}

// FuzzBranchRecord fuzzes the decoder of prepared-branch records, read
// off a disk at recovery: parseBranch never panics, refuses what it
// refuses as wire.ErrCorrupt, allocates in proportion to its input
// whatever op count it declares, and accepts only what re-encodes to the
// same bytes.
func FuzzBranchRecord(f *testing.F) {
	_, raw := preparedBranch(f)
	f.Add(raw)
	f.Add(appendBranch(nil, "", nil))
	f.Add(appendBranch(nil, "dest", []stable.Op{stable.Del("q/e/1/a")}))
	if old, err := os.ReadFile(filepath.Join("testdata", "branch-gob-60b3006.bin")); err == nil {
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decider, ops, err := parseBranch(raw)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+1<<16); n > limit {
			t.Fatalf("parsing %d bytes allocated %d, want <= %d", len(raw), n, limit)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("refused with %v, want wire.ErrCorrupt", err)
			}
			return
		}
		if again := appendBranch(nil, decider, ops); !bytes.Equal(again, raw) {
			t.Fatalf("record does not re-encode to itself:\n got % x\nwant % x", again, raw)
		}
	})
}

// FuzzOutcomeRecord fuzzes the decoder of the decider's commit records
// and fences (txn/outcome/), read off a disk at recovery: parseOutcome
// never panics, refuses as wire.ErrCorrupt, and accepts only what
// re-encodes to the same bytes.
func FuzzOutcomeRecord(f *testing.F) {
	f.Add(appendOutcome(nil, true, 17))
	f.Add(appendOutcome(nil, false, 0))
	f.Add([]byte{0x90, 0x3a, 2, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		commit, mark, err := parseOutcome(raw)
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("refused with %v, want wire.ErrCorrupt", err)
			}
			return
		}
		if again := appendOutcome(nil, commit, mark); !bytes.Equal(again, raw) {
			t.Fatalf("record does not re-encode to itself:\n got % x\nwant % x", again, raw)
		}
	})
}
