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
// delete, and returns the record PrepareDelegated wrote.
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
	if err := tx.PrepareDelegated("d"); err != nil {
		t.Fatal(err)
	}
	raw, ok, err := store.Get(BranchPrefix + "co#7")
	if err != nil || !ok {
		t.Fatalf("branch record: %v %v", ok, err)
	}
	return ops, raw
}

// TestBranchRecordRoundTrip: the record keeps its decider, every op, an
// empty put apart from a delete; and the records older commits wrote — a
// gob record of commit 60b3006, a coordinator-decided 0x38 record of
// commit a03745a (testdata, each written by that commit's Prepare) — are
// refused as corrupt by ResolveBranch, which leaves them in place.
func TestBranchRecordRoundTrip(t *testing.T) {
	ops, raw := preparedBranch(t)
	decider, got, err := parseBranch(raw)
	if err != nil || decider != "d" || !reflect.DeepEqual(got, ops) {
		t.Fatalf("parseBranch = %q, %#v, %v; want d, %#v", decider, got, err, ops)
	}
	for _, file := range []string{"branch-gob-60b3006.bin", "branch-0x38-a03745a.bin"} {
		old, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		m, store := newMgr(t)
		if err := store.Apply(stable.Put(BranchPrefix+"co#7", old)); err != nil {
			t.Fatal(err)
		}
		if err := m.ResolveBranch("co#7", true); !errors.Is(err, wire.ErrCorrupt) || !strings.Contains(err.Error(), "co#7") {
			t.Errorf("%s: ResolveBranch = %v, want wire.ErrCorrupt naming the branch", file, err)
		}
		if ids, _ := m.InDoubtBranches(); len(ids) != 1 {
			t.Errorf("%s: in-doubt branches after the refusal = %v, want the old one", file, ids)
		}
	}
}

// TestOutcomeRecordParties: a record lists the parties a commit still
// waits on, and one without parties is the layout commit a03745a wrote
// (testdata, written by its OutcomeOp): it reads the same and re-encodes
// to the same bytes. An empty list is not canonical and is refused.
func TestOutcomeRecordParties(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "outcome-0x3a-a03745a.bin"))
	if err != nil {
		t.Fatal(err)
	}
	o, err := parseOutcome(old)
	if err != nil || !o.Commit || o.Mark != 3 || o.Parties != nil {
		t.Fatalf("parent-written record = %+v, %v; want commit, mark 3, no parties", o, err)
	}
	if again := appendOutcome(nil, o.Commit, o.Mark, o.Parties); !bytes.Equal(again, old) {
		t.Fatalf("parent-written record re-encodes as % x, want % x", again, old)
	}
	raw := appendOutcome(nil, true, 9, []string{"p", "r"})
	if o, err := parseOutcome(raw); err != nil || !reflect.DeepEqual(o.Parties, []string{"p", "r"}) || o.Mark != 9 {
		t.Fatalf("record with parties = %+v, %v", o, err)
	}
	empty := wire.AppendStrings(appendOutcome(nil, true, 9, nil), nil)
	if _, err := parseOutcome(empty); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("empty party list = %v, want wire.ErrCorrupt", err)
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
	f.Add(appendBranch(nil, "d", nil))
	f.Add(appendBranch(nil, "dest", []stable.Op{stable.Del("q/e/1/a")}))
	for _, file := range []string{"branch-gob-60b3006.bin", "branch-0x38-a03745a.bin"} {
		if old, err := os.ReadFile(filepath.Join("testdata", file)); err == nil {
			f.Add(old)
		}
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
// (with and without parties) and fences (txn/outcome/), read off a disk
// at recovery: parseOutcome
// never panics, refuses as wire.ErrCorrupt, and accepts only what
// re-encodes to the same bytes.
func FuzzOutcomeRecord(f *testing.F) {
	f.Add(appendOutcome(nil, true, 17, nil))
	f.Add(appendOutcome(nil, false, 0, nil))
	f.Add([]byte{0x90, 0x3a, 2, 1})
	f.Add(appendOutcome(nil, true, 17, []string{"p", "r"}))
	if old, err := os.ReadFile(filepath.Join("testdata", "outcome-0x3a-a03745a.bin")); err == nil {
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		o, err := parseOutcome(raw)
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("refused with %v, want wire.ErrCorrupt", err)
			}
			return
		}
		if again := appendOutcome(nil, o.Commit, o.Mark, o.Parties); !bytes.Equal(again, raw) {
			t.Fatalf("record does not re-encode to itself:\n got % x\nwant % x", again, raw)
		}
	})
}
