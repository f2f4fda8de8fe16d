package trace

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// seqClock returns a now func that ticks once per call, so record times
// are distinct and ordered by claim without touching the wall clock.
func seqClock() func() int64 {
	var t int64
	return func() int64 { t++; return t }
}

func TestRingWraparound(t *testing.T) {
	tr := New("n1", 8, seqClock())
	for i := int64(1); i <= 20; i++ {
		tr.Rec(OpWireSend, "", "", "kind", "peer", "", i)
	}
	rs := tr.Snapshot()
	if len(rs) != 8 {
		t.Fatalf("snapshot after wrap = %d records, want 8", len(rs))
	}
	// The ring keeps exactly the newest 8 claims, in claim order.
	for i, r := range rs {
		wantSeq := uint64(13 + i)
		if r.Seq != wantSeq {
			t.Errorf("record %d: seq = %d, want %d", i, r.Seq, wantSeq)
		}
		if r.N != int64(wantSeq) {
			t.Errorf("record %d: payload N = %d, want %d (oldest records must be overwritten)", i, r.N, wantSeq)
		}
	}
	if tr.Len() != 20 {
		t.Errorf("Len = %d, want 20 (total claims, not occupancy)", tr.Len())
	}
}

func TestRingSizeRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{5, 8}, {8, 8}, {9, 16}, {1, 1},
		{0, DefaultRingSize}, {-3, DefaultRingSize},
	} {
		tr := New("n", tc.in, nil)
		if got := len(tr.slots); got != tc.want {
			t.Errorf("New(size=%d): %d slots, want %d", tc.in, got, tc.want)
		}
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Rec(OpTransition, "t", "a", "ev", "s1", "s2", 1) // must not panic
	if rs := tr.Snapshot(); rs != nil {
		t.Errorf("nil Snapshot = %v, want nil", rs)
	}
	if tr.Len() != 0 || tr.Node() != "" {
		t.Errorf("nil Len/Node = %d/%q", tr.Len(), tr.Node())
	}
}

// TestRecAllocs pins the hot path at zero allocations: the ring is on by
// default, so a Rec that allocates would tax every protocol transition.
func TestRecAllocs(t *testing.T) {
	tr := New("n", 64, seqClock())
	long := strings.Repeat("x", maxField)
	// Each record's N is the number of slots it claims.
	for _, r := range []Record{
		{Txn: "w0#1", Agent: "agent", Name: "PrepareReceived", A: "staged", B: "locked", N: 1},
		{Txn: long, Agent: long, Name: long, A: long, B: long, N: 15},
	} {
		before := tr.Len()
		allocs := testing.AllocsPerRun(1000, func() {
			tr.Rec(OpTransition, r.Txn, r.Agent, r.Name, r.A, r.B, r.N)
		})
		if allocs != 0 {
			t.Errorf("record of %d slots: Rec allocates %.1f objects per call, want 0", r.N, allocs)
		}
		// AllocsPerRun calls once more to warm up.
		if claims := (tr.Len() - before) / 1001; claims != uint64(r.N) {
			t.Errorf("Rec claims %d slots per call, want %d", claims, r.N)
		}
	}
}

// TestConcurrentHammer drives writers and snapshotters concurrently,
// every third record long enough to span three slots; run under -race it
// proves the per-slot locking keeps records untorn, including records
// overwritten while a snapshot reads them.
func TestConcurrentHammer(t *testing.T) {
	var clock atomic.Int64
	tr := New("n", 256, func() int64 { return clock.Add(1) })
	const writers, perWriter = 8, 2000
	// want returns the strings writer w records as its i-th record.
	want := func(w, i int) (agent, name string) {
		if i%3 == 0 {
			c := string(rune('a' + w))
			return strings.Repeat(c, 150), strings.Repeat(c, 100)
		}
		return "agent", ""
	}
	check := func(r Record) bool {
		w, i := int(r.N)/perWriter, int(r.N)%perWriter
		agent, name := want(w, i)
		if r.Op != OpSchedClaim || r.Node != "n" || r.Agent != agent || r.Name != name || r.Txn != "" || r.A != "" || r.B != "" {
			t.Errorf("torn record: %+v", r)
			return false
		}
		return true
	}
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				agent, name := want(w, i)
				tr.Rec(OpSchedClaim, "", agent, name, "", "", int64(w*perWriter+i))
			}
		}(w)
	}
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range tr.Snapshot() {
				if !check(r) {
					return
				}
			}
		}
	}()
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	const long = (perWriter + 2) / 3
	if want := uint64(writers * (3*long + perWriter - long)); tr.Len() != want {
		t.Errorf("Len = %d, want %d claimed slots", tr.Len(), want)
	}
	rs := tr.Snapshot()
	if len(rs) == 0 {
		t.Fatal("final snapshot is empty")
	}
	covered := 0
	for i, r := range rs {
		check(r)
		covered++
		if r.Agent != "agent" {
			covered += 2
		}
		if i > 0 && rs[i-1].Seq >= r.Seq {
			t.Errorf("snapshot not seq-ordered at %d: %d >= %d", i, rs[i-1].Seq, r.Seq)
		}
	}
	if covered > 256 {
		t.Errorf("final snapshot covers %d slots of a 256-slot ring", covered)
	}
}

// TestSlotHoldsNoPointers walks the slot type: a pointer-shaped field
// anywhere in it would make the collector scan every ring on every cycle.
func TestSlotHoldsNoPointers(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size != 128 {
		t.Errorf("slot is %d bytes, want 128 (resize slotData)", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: the ring must hold no pointers", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("slot", reflect.TypeOf(slot{}))
}

// TestRingRoundTrip checks that Snapshot returns exactly what Rec was
// given, whatever number of slots a record spans, and that a record
// whose slots no longer all carry its claims is dropped, not torn.
func TestRingRoundTrip(t *testing.T) {
	rep := strings.Repeat
	// one fills a slot exactly; two is one byte longer.
	one := Record{Op: OpTransition, Txn: rep("t", 20), Agent: rep("a", 20), Name: rep("n", 20), A: rep("x", 20), B: rep("y", slotData-80), N: 7}
	two := one
	two.B += "z"
	many := Record{Op: OpMigrate, Txn: rep("t", maxField), Agent: rep("a", maxField), Name: rep("n", maxField), A: rep("x", maxField), B: rep("y", maxField), N: -1}
	four := Record{Op: OpMigrate, Agent: rep("a", 200), Name: rep("n", 100)}
	// A field over maxField keeps its first maxField bytes.
	over := Record{Op: OpWireSend, Name: rep("k", maxField+45), A: "peer", N: 3}
	overKept := over
	overKept.Name = over.Name[:maxField]
	// A 1-slot ring holds slotData bytes of a record: its last fields
	// are cut first.
	twoIn1 := two
	twoIn1.B = two.B[:slotData-80]
	single := func(n int64) Record { return Record{Op: OpSchedClaim, Agent: "agent", N: n} }
	at := func(seq uint64, r Record) Record { r.Seq, r.Node = seq, "n"; return r }
	for _, tc := range []struct {
		name   string
		size   int
		in     []Record
		then   func(tr *Tracer) // disturbs the ring before the snapshot
		want   []Record
		claims uint64
	}{
		{name: "empty fields", size: 8, in: []Record{{Op: OpSchedClaim}},
			want: []Record{at(1, Record{Op: OpSchedClaim})}, claims: 1},
		{name: "fills one slot", size: 8, in: []Record{one, single(1)},
			want: []Record{at(1, one), at(2, single(1))}, claims: 2},
		{name: "spills into two", size: 8, in: []Record{two, single(1)},
			want: []Record{at(1, two), at(3, single(1))}, claims: 3},
		{name: "spills into many", size: 16, in: []Record{single(1), many},
			want: []Record{at(1, single(1)), at(2, many)}, claims: 16},
		{name: "field over cap", size: 8, in: []Record{over},
			want: []Record{at(1, overKept)}, claims: 3},
		{name: "longer than the ring", size: 1, in: []Record{two},
			want: []Record{at(1, twoIn1)}, claims: 1},
		{
			// Claims 7–10 (slots 7, 0, 1, 2) hold four; claims 15 and 16
			// overwrite its first half, leaving claims 9 and 10 orphaned.
			name: "wraparound overwrites half", size: 8,
			in: []Record{single(1), single(2), single(3), single(4), single(5), single(6), four,
				single(11), single(12), single(13), single(14), single(15), single(16)},
			want: []Record{at(11, single(11)), at(12, single(12)), at(13, single(13)),
				at(14, single(14)), at(15, single(15)), at(16, single(16))},
			claims: 16,
		},
		{
			// four claims 9–12 (slots 1–4), but slot 3 still holds claim
			// 3, as while four's writer has not reached it: four is
			// dropped, and its head's stale neighbours are not records.
			name: "continuation not yet written", size: 8,
			in: []Record{single(1), single(2), single(3), single(4), single(5), single(6), single(7), single(8)},
			then: func(tr *Tracer) {
				old := tr.slots[3].p
				tr.Rec(four.Op, four.Txn, four.Agent, four.Name, four.A, four.B, four.N)
				tr.slots[3].p = old
			},
			want: []Record{at(3, single(3)), at(5, single(5)), at(6, single(6)),
				at(7, single(7)), at(8, single(8))},
			claims: 12,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := New("n", tc.size, nil)
			for _, r := range tc.in {
				tr.Rec(r.Op, r.Txn, r.Agent, r.Name, r.A, r.B, r.N)
			}
			if tc.then != nil {
				tc.then(tr)
			}
			if tr.Len() != tc.claims {
				t.Errorf("Len = %d, want %d", tr.Len(), tc.claims)
			}
			got := tr.Snapshot()
			if len(got) != len(tc.want) {
				t.Fatalf("snapshot = %d records, want %d: %+v", len(got), len(tc.want), got)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}
