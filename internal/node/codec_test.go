package node

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/itinerary"
	"repro/internal/membership"
	"repro/internal/wire"
)

// gob is the test-only oracle of the container codec: the runtime no
// longer registers these types with it.
func init() {
	gob.Register(itinerary.Step{})
	gob.Register(&itinerary.Sub{})
	gob.Register(&core.SavepointEntry{})
	gob.Register(&core.BeginStepEntry{})
	gob.Register(&core.OpEntry{})
	gob.Register(&core.EndStepEntry{})
}

// sampleContainers builds the container shapes the codec must carry, by
// name: they seed the fuzzer and the differential test, and
// TestContainerCorpusCurrent pins them against the checked-in corpus.
func sampleContainers(t testing.TB) map[string]*Container {
	t.Helper()
	tour := func() *itinerary.Itinerary {
		it, err := itinerary.New(
			&itinerary.Sub{ID: "out", Entries: []itinerary.Entry{
				itinerary.Step{Method: "pay", Loc: "A"},
				&itinerary.Sub{ID: "shops", AnyOrder: true, Entries: []itinerary.Entry{
					itinerary.Step{Method: "buy", Loc: "B", Alt: []string{"C", "D"}},
					&itinerary.Sub{ID: "inner", Entries: []itinerary.Entry{itinerary.Step{Method: "rate", Loc: "@ring:k"}}},
				}},
			}},
			&itinerary.Sub{ID: "back", Entries: []itinerary.Entry{itinerary.Step{Method: "report", Loc: "A"}}},
		)
		if err != nil {
			t.Fatal(err)
		}
		return it
	}
	newAgent := func(id string, mode core.LogMode) *agent.Agent {
		a, entered, err := agent.New(id, "owner", tour())
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SRO.Set("note", "hello"); err != nil {
			t.Fatal(err)
		}
		if err := a.WRO.Set("wallet", 100); err != nil {
			t.Fatal(err)
		}
		// An untagged value stands for a gob-encoded user type; literal
		// bytes, because gob's type ids depend on what the process encoded
		// before and the corpus must not.
		a.WRO.Data["receipt"] = []byte{0x07, 0xff, 0x81, 0x03, 0x01, 0x01, 0x02}
		if err := AppendInitialSavepoints(a, entered, mode); err != nil {
			t.Fatal(err)
		}
		return a
	}

	forward := newAgent("fwd", core.StateLogging)
	forward.StepSeq = 1
	forward.Log.Append(&core.BeginStepEntry{Node: "A", Seq: 0})
	forward.Log.Append(&core.OpEntry{Kind: core.OpResource, Op: "bank.refund",
		Params: core.NewParams().Set("acct", "alice").Set("amt", int64(-5)).Set("raw", []byte{0, 0xff})})
	forward.Log.Append(&core.EndStepEntry{Node: "A", Seq: 0, AltNodes: []string{"A2"}})

	// Transition logging after two steps: a base image, a delta with a
	// changed and a deleted key, then a special savepoint sharing it.
	rb := newAgent("rb", core.TransitionLogging)
	rb.Log.Append(&core.BeginStepEntry{Node: "A", Seq: 0})
	rb.Log.Append(&core.OpEntry{Kind: core.OpMixed, Op: "shop.return", Params: core.Params{}})
	rb.Log.Append(&core.OpEntry{Kind: core.OpAgent, Op: "wallet.restore"})
	rb.Log.Append(&core.EndStepEntry{Node: "A", Seq: 0, HasMixed: true})
	if err := rb.SRO.Delete("note"); err != nil {
		t.Fatal(err)
	}
	if err := rb.SRO.Set("seen", []byte("B")); err != nil {
		t.Fatal(err)
	}
	rb.StepSeq = 1
	rb.Cursor = itinerary.Cursor{Path: []int{0, 1, 0}}
	if err := appendSavepointTo(rb, "shops", core.TransitionLogging); err != nil {
		t.Fatal(err)
	}
	if err := appendSavepointTo(rb, "inner", core.TransitionLogging); err != nil {
		t.Fatal(err)
	}

	// Entering shops fixed a new order of its entries after the launch
	// savepoint of out: that one's itinerary travels inline, shops'
	// refers to the container's.
	inline := newAgent("inl", core.StateLogging)
	inline.Log.Append(&core.BeginStepEntry{Node: "A", Seq: 0})
	inline.Log.Append(&core.EndStepEntry{Node: "A", Seq: 0})
	shops := inline.Itin.Subs[0].Entries[1].(*itinerary.Sub)
	shops.Entries[0], shops.Entries[1] = shops.Entries[1], shops.Entries[0]
	inline.StepSeq = 1
	inline.Cursor = itinerary.Cursor{Path: []int{0, 1, 0, 0}}
	if err := appendSavepointTo(inline, "shops", core.StateLogging); err != nil {
		t.Fatal(err)
	}

	noLog := newAgent("nolog", core.StateLogging)
	noLog.Log = nil
	noLog.SRO = nil
	noLog.Cursor = itinerary.Cursor{Done: true}

	return map[string]*Container{
		"forward":   {Mode: ModeStep, Agent: forward},
		"rollback":  {Mode: ModeRollback, SpID: "shops", Agent: rb},
		"inline":    {Mode: ModeStep, Agent: inline},
		"nil-agent": {Mode: ModeStep, SpID: "x"},
		"nil-log":   {Mode: ModeStep, Agent: noLog},
		"bare":      {Agent: &agent.Agent{}},
	}
}

// dropEmpty rewrites empty maps and slices under v to nil: the one
// difference gob and the binary codec are allowed (gob keeps an empty
// []byte map value empty, the binary reader yields nil).
func dropEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			dropEmpty(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				dropEmpty(v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Len() == 0 && v.CanSet() {
			v.SetZero()
		}
		for i := 0; i < v.Len(); i++ {
			dropEmpty(v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 && v.CanSet() {
			v.SetZero()
			return
		}
		for _, k := range v.MapKeys() {
			if e := v.MapIndex(k); e.Kind() == reflect.Slice && e.Len() == 0 {
				v.SetMapIndex(k, reflect.Zero(e.Type()))
			}
		}
	}
}

// viaBothCodecs sends c through the binary codec and through gob and
// fails unless both reproduce it identically.
func viaBothCodecs(t *testing.T, c *Container) {
	t.Helper()
	bin, err := EncodeContainer(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeContainer(bin)
	if err != nil {
		t.Fatalf("decode of own encoding: %v", err)
	}
	again, err := EncodeContainer(got)
	if err != nil || !bytes.Equal(again, bin) {
		t.Errorf("re-encoding the decoded container changed its bytes (%v)", err)
	}
	gobEnc, err := wire.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	var oracle Container
	if err := wire.Decode(gobEnc, &oracle); err != nil {
		t.Fatal(err)
	}
	dropEmpty(reflect.ValueOf(got))
	dropEmpty(reflect.ValueOf(&oracle))
	if !reflect.DeepEqual(got, &oracle) {
		t.Errorf("binary and gob disagree:\nbinary %s\ngob    %s", dump(got), dump(&oracle))
	}
}

func dump(c *Container) string {
	if c.Agent == nil {
		return fmt.Sprintf("%+v", *c)
	}
	a := *c.Agent
	return fmt.Sprintf("%+v agent=%+v itin=%+v sro=%+v wro=%+v log=%v", *c, a, a.Itin, a.SRO, a.WRO, a.Log)
}

func TestContainerSamplesMatchGob(t *testing.T) {
	for name, c := range sampleContainers(t) {
		t.Run(name, func(t *testing.T) { viaBothCodecs(t, c) })
	}
}

// TestContainerDifferentialGob: random containers — random nesting, entry
// kinds, nil and empty members — decode the same through both codecs.
func TestContainerDifferentialGob(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 300; i++ {
		viaBothCodecs(t, randomContainer(rng))
		if t.Failed() {
			t.Fatalf("container %d", i)
		}
	}
}

func randomContainer(rng *rand.Rand) *Container {
	str := func() string { return string(randBytes(rng, rng.Intn(6))) }
	strs := func() []string {
		out := make([]string, rng.Intn(3))
		for i := range out {
			out[i] = str()
		}
		return out
	}
	bmap := func() map[string][]byte {
		if rng.Intn(4) == 0 {
			return nil
		}
		m := make(map[string][]byte)
		for n := rng.Intn(4); n > 0; n-- {
			m[str()] = randBytes(rng, rng.Intn(20))
		}
		return m
	}
	space := func() *agent.Space {
		if rng.Intn(6) == 0 {
			return nil
		}
		return &agent.Space{Data: bmap()}
	}
	var sub func(depth int) *itinerary.Sub
	sub = func(depth int) *itinerary.Sub {
		s := &itinerary.Sub{ID: str(), AnyOrder: rng.Intn(2) == 0}
		for n := rng.Intn(4); n > 0; n-- {
			if depth < 4 && rng.Intn(3) == 0 {
				s.Entries = append(s.Entries, sub(depth+1))
			} else {
				s.Entries = append(s.Entries, itinerary.Step{Method: str(), Loc: str(), Alt: strs()})
			}
		}
		return s
	}
	c := &Container{Mode: Mode(rng.Intn(4) - 1), SpID: str()}
	if rng.Intn(10) == 0 {
		return c
	}
	a := &agent.Agent{ID: str(), Owner: str(), StepSeq: rng.Intn(300) - 10, SRO: space(), WRO: space()}
	a.Cursor.Done = rng.Intn(5) == 0
	for n := rng.Intn(4); n > 0; n-- {
		a.Cursor.Path = append(a.Cursor.Path, rng.Intn(200)-3)
	}
	if rng.Intn(8) != 0 {
		a.Itin = &itinerary.Itinerary{}
		for n := rng.Intn(3); n > 0; n-- {
			a.Itin.Subs = append(a.Itin.Subs, sub(1))
		}
	}
	if rng.Intn(8) != 0 {
		a.Log = &core.Log{}
		// Savepoint IDs are unique, a special savepoint refers to an
		// earlier one, and a delta follows a data-carrying one: the
		// decoder refuses anything else.
		var ids []string
		base := false
		for n := rng.Intn(8); n > 0; n-- {
			switch rng.Intn(4) {
			case 0:
				sp := &core.SavepointEntry{ID: str(), Mode: core.LogMode(rng.Intn(3)), Image: bmap(),
					RefID: str(), Auto: rng.Intn(2) == 0}
				for slices.Contains(ids, sp.ID) {
					sp.ID += "'"
				}
				if len(ids) > 0 && rng.Intn(2) == 0 {
					sp.Special, sp.RefID = true, ids[rng.Intn(len(ids))]
				}
				ids = append(ids, sp.ID)
				if rng.Intn(3) != 0 {
					sp.Sys = &core.SysState{StepSeq: rng.Intn(300) - 10, Itin: randBytes(rng, rng.Intn(12))}
					sp.Sys.Cursor.Done = rng.Intn(5) == 0
					for n := rng.Intn(4); n > 0; n-- {
						sp.Sys.Cursor.Path = append(sp.Sys.Cursor.Path, rng.Intn(200)-3)
					}
					if rng.Intn(2) == 0 {
						sp.Sys.Itin, _ = a.Itin.AppendTo(nil) // the container's: a reference
					}
				}
				if base && rng.Intn(2) == 0 {
					sp.Delta = &core.SRODelta{Changed: bmap(), Deleted: strs()}
				}
				base = base || !sp.Special
				a.Log.Append(sp)
			case 1:
				a.Log.Append(&core.BeginStepEntry{Node: str(), Seq: rng.Intn(100) - 1})
			case 2:
				a.Log.Append(&core.OpEntry{Kind: core.OpKind(rng.Intn(5)), Op: str(), Params: bmap()})
			default:
				a.Log.Append(&core.EndStepEntry{Node: str(), Seq: rng.Intn(100), HasMixed: rng.Intn(2) == 0, AltNodes: strs()})
			}
		}
	}
	c.Agent = a
	return c
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestContainerRefusesRetiredLayout: a container in the 0x11 layout — as
// commit 4840178 wrote it, names in full and a reserved varint after SpID,
// or as commit c1c7f14 wrote it with a migration epoch in that slot — is
// ErrCorrupt, and the same agent in today's layout is smaller.
func TestContainerRefusesRetiredLayout(t *testing.T) {
	want, err := EncodeContainer(sampleContainers(t)["forward"])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"container-4840178.bin", "container-epoch-c1c7f14.bin"} {
		old := fixture(t, name)
		if len(old) < 2 || old[1] != typeRetiredContainer {
			t.Fatalf("%s is no 0x11 container", name)
		}
		if _, err := DecodeContainer(old); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
		if len(want) >= len(old) {
			t.Errorf("%s: %d bytes, today's layout %d; want it smaller", name, len(old), len(want))
		}
	}
}

// TestContainerRefusesSysImageLayout: a container in the 0x15 layout, as
// commit 0b60b8b wrote it for a demo agent holding its launch savepoint
// (system state under reserved keys of the savepoint's SRO image), is
// ErrCorrupt; the same agent in today's layout is smaller by at least
// the itinerary copy and the three key names.
func TestContainerRefusesSysImageLayout(t *testing.T) {
	old := fixture(t, "container-0b60b8b.bin")
	if len(old) < 2 || old[1] != typeRetiredSysImage {
		t.Fatal("container-0b60b8b.bin is no 0x15 container")
	}
	if _, err := DecodeContainer(old); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("0x15 container: %v, want ErrCorrupt", err)
	}
	a, entered, err := demo.NewAgent("trip1", "alice", "A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	a.Owner = "ctl"
	if err := a.SRO.Set("note", "before the trip"); err != nil {
		t.Fatal(err)
	}
	if err := AppendInitialSavepoints(a, entered, core.StateLogging); err != nil {
		t.Fatal(err)
	}
	now, err := EncodeContainer(&Container{Mode: ModeStep, Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	itin, err := a.Itin.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := len("__sys/cursor") + len("__sys/itinerary") + len("__sys/stepseq")
	if saved := len(old) - len(now); saved < len(itin)+keys {
		t.Errorf("today's layout: %d B, 0x15: %d B; want at least %d B saved", len(now), len(old), len(itin)+keys)
	}
}

// tailStart returns the offset in c's encoding at which the agent's head
// ends and WRO, SRO and log begin: a copy without them encodes each as one
// absent byte.
func tailStart(t testing.TB, c *Container) int {
	t.Helper()
	bare := *c
	a := *c.Agent
	a.WRO, a.SRO, a.Log = nil, nil, nil
	bare.Agent = &a
	head, err := EncodeContainer(&bare)
	if err != nil {
		t.Fatal(err)
	}
	return len(head) - 3
}

// TestContainerRejectsMalformed: every cut of a valid container, trailing
// bytes, gob bytes and counts the input cannot hold are ErrCorrupt.
func TestContainerRejectsMalformed(t *testing.T) {
	data, err := EncodeContainer(sampleContainers(t)["rollback"])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeContainer(data[:cut]); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("container cut at %d of %d: %v, want ErrCorrupt", cut, len(data), err)
		}
	}
	cases := map[string][]byte{
		"trailing byte":    append(append([]byte{}, data...), 0),
		"gob container":    gobFixture(t),
		"wrong type byte":  append([]byte{wire.BinaryVersion, typeDone}, data[2:]...),
		"non-minimal mode": append([]byte{wire.BinaryVersion, typeContainer, 0x84, 0x00}, data[3:]...),
	}
	for name, in := range cases {
		if _, err := DecodeContainer(in); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}

func gobFixture(t testing.TB) []byte { return fixture(t, "gob-container-5015b40.bin") }

// fixture reads one file of testdata: bytes as an older commit wrote them.
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
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

// inflateCount returns data with the one-byte count at offset at replaced
// by a five-byte varint declaring ~4 billion elements.
func inflateCount(data []byte, at int) []byte {
	out := append([]byte{}, data[:at]...)
	out = append(out, 0xff, 0xff, 0xff, 0xff, 0x0f)
	return append(out, data[at+1:]...)
}

// FuzzContainerRoundTrip fuzzes the decoder that reads containers off the
// queue, off the wire and out of launch messages: DecodeContainer must
// never panic, must refuse what it refuses as wire.ErrCorrupt, must not
// allocate out of proportion to its input whatever counts the input
// declares, and whatever it accepts re-encodes to exactly the input bytes
// with the reserved slot written as 0 (one container, one encoding).
func FuzzContainerRoundTrip(f *testing.F) {
	// Seeds built by the encoder; the committed corpus under testdata/fuzz
	// holds the same shapes as literal bytes (TestContainerCorpusCurrent).
	for _, data := range corpusSeeds(f) {
		f.Add(data)
	}
	f.Add(fixture(f, "container-4840178.bin"))
	f.Add(fixture(f, "container-0b60b8b.bin"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c *Container
		var err error
		checkAllocs(t, len(data), func() { c, err = DecodeContainer(data) })
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("refused with %v, want wire.ErrCorrupt", err)
			}
			return
		}
		again, err := EncodeContainer(c)
		if err != nil {
			t.Fatalf("accepted container does not encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted container re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}

// corpusSeeds names the fuzz seeds: every sample container (among them
// savepoints with no system state, with an itinerary that refers to the
// container's and with one inline), the rollback container truncated, it
// again with its sub, map and log-entry counts inflated past anything the
// input could hold, it with its savepoints' itinerary written inline
// though it is the container's, it with a special savepoint naming itself
// or a later savepoint, it with a delta savepoint ahead of any base image,
// and the name-table faults of nameSeeds.
func corpusSeeds(t testing.TB) map[string][]byte {
	seeds := make(map[string][]byte)
	for name, c := range sampleContainers(t) {
		data, err := EncodeContainer(c)
		if err != nil {
			t.Fatal(err)
		}
		seeds[name] = data
	}
	rb := seeds["rollback"]
	seeds["truncated"] = rb[:len(rb)*2/3]
	seeds["trailing"] = append(append([]byte{}, rb...), 0x01)
	// Offsets of three count bytes in the rollback container: the
	// itinerary's sub count, the WRO map count, the log entry count, each
	// one byte behind the presence byte of its holder.
	c, err := DecodeContainer(rb)
	if err != nil {
		t.Fatal(err)
	}
	itin, err := c.Agent.Itin.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := c.Agent.Log.AppendTo(nil, itin)
	if err != nil {
		t.Fatal(err)
	}
	wro := tailStart(t, c) + 1
	subs := wro - 1 - len(itin) + 1
	entries := len(rb) - len(log) + 1
	seeds["inflated-subs"] = inflateCount(rb, subs)
	seeds["inflated-map"] = inflateCount(rb, wro)
	seeds["inflated-log"] = inflateCount(rb, entries)
	// The rollback container's log, last in it, with every savepoint
	// itinerary that refers to the container's written inline instead.
	inline, _, err := c.Agent.Log.AppendTo(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds["sp-itinerary-inline-equal"] = append(append([]byte{}, rb[:len(rb)-len(log)]...), inline...)
	// The rollback container with a special savepoint that names itself,
	// with one ahead of the savepoint it names, and with a delta ahead of
	// every base image.
	for name, edit := range map[string]func([]core.Entry) []core.Entry{
		"sp-self-ref": func(es []core.Entry) []core.Entry {
			return append(es, &core.SavepointEntry{ID: "loop", Special: true, RefID: "loop"})
		},
		"sp-forward-ref": func(es []core.Entry) []core.Entry {
			return append([]core.Entry{&core.SavepointEntry{ID: "ahead", Special: true, RefID: "shops"}}, es...)
		},
		"sp-delta-no-base": func(es []core.Entry) []core.Entry {
			delta := &core.SRODelta{Changed: map[string][]byte{"k": []byte("v")}}
			return append([]core.Entry{&core.SavepointEntry{ID: "nobase", Mode: core.TransitionLogging, Delta: delta}}, es...)
		},
	} {
		c, err := DecodeContainer(rb)
		if err != nil {
			t.Fatal(err)
		}
		c.Agent.Log.Entries = edit(c.Agent.Log.Entries)
		if seeds[name], err = EncodeContainer(c); err != nil {
			t.Fatal(err)
		}
	}
	for name, pair := range nameSeeds(seeds["bare"]) {
		seeds[name] = pair[0]
	}
	return seeds
}

// nameSeeds pairs each name-table fault with the same bytes made well
// formed, both spliced into the bare container (an agent with every field
// zero) in place of its absent itinerary or log: a reference past the
// table, a reference before any inline name, a name written inline twice,
// and a reference that puts a map's keys out of order.
func nameSeeds(bare []byte) map[string][2][]byte {
	// The bare agent ends Itinerary WRO SRO Log, each one absent byte.
	itin := func(b ...byte) []byte {
		out := append(append([]byte{}, bare[:len(bare)-4]...), b...)
		return append(out, bare[len(bare)-3:]...)
	}
	log := func(b ...byte) []byte { return append(append([]byte{}, bare[:len(bare)-1]...), b...) }
	// Itineraries: present, two subs (or one), each an ID, an order flag
	// and no entries. The log: present, one OE (kind 3) of kind 0 named
	// "a", with two parameters whose second key is the fault.
	return map[string][2][]byte{
		"name-ref-out-of-range":     {itin(1, 2, 2, 'a', 0, 0, 3, 0, 0), itin(1, 2, 2, 'a', 0, 0, 1, 0, 0)},
		"name-ref-before-inline":    {itin(1, 1, 1, 0, 0), itin(1, 1, 0, 0, 0)},
		"name-inline-repeat":        {itin(1, 2, 2, 'a', 0, 0, 2, 'a', 0, 0), itin(1, 2, 2, 'a', 0, 0, 2, 'b', 0, 0)},
		"name-ref-breaks-key-order": {log(1, 1, 3, 0, 2, 'a', 3, 2, 'b', 0, 1, 0), log(1, 1, 3, 0, 2, 'a', 3, 2, 'b', 0, 2, 'c', 0)},
	}
}

var updateCorpus = os.Getenv("UPDATE_CORPUS") != ""

// TestContainerCorpusCurrent pins the container format (and the membership
// announce's): the checked-in fuzz corpus must be exactly what the encoder
// writes today, so a format change has to regenerate it (UPDATE_CORPUS=1
// go test ./internal/node -run TestContainerCorpusCurrent) and show up in
// review as changed bytes.
func TestContainerCorpusCurrent(t *testing.T) {
	seeds := corpusSeeds(t)
	checkCorpus(t, "FuzzContainerRoundTrip", seeds)
	checkCorpus(t, "FuzzAnnounce", announceSeeds())
	for name, pair := range nameSeeds(seeds["bare"]) {
		if _, err := DecodeContainer(pair[1]); err != nil {
			t.Errorf("seed %s made well formed: %v", name, err)
		}
	}
	for _, name := range []string{"inflated-subs", "inflated-map", "inflated-log", "truncated", "trailing", "sp-itinerary-inline-equal", "sp-self-ref", "sp-forward-ref", "sp-delta-no-base",
		"name-ref-out-of-range", "name-ref-before-inline", "name-inline-repeat", "name-ref-breaks-key-order"} {
		if _, err := DecodeContainer(seeds[name]); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("seed %s: %v, want ErrCorrupt", name, err)
		}
	}
}

// checkCorpus compares (or, with UPDATE_CORPUS, rewrites) the checked-in
// corpus of one fuzz target against seeds.
func checkCorpus(t *testing.T, target string, seeds map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	for name, data := range seeds {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		path := filepath.Join(dir, "seed-"+name)
		if updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s differs from today's encoding of the %q seed", path, name)
		}
	}
}

// announceSeeds names the FuzzAnnounce seeds: a three-member view, the
// empty view, and the view cut short, trailed, with its member count
// inflated past the input and with a status no member can have.
func announceSeeds() map[string][]byte {
	view := (&announceMsg{Members: []membership.Member{
		{Name: "A", Status: membership.Alive, Epoch: 1},
		{Name: "B", Status: membership.Suspect, Epoch: 300},
		{Name: "node-C", Status: membership.Left, Epoch: 1 << 40},
	}}).AppendTo(nil)
	badStatus := append([]byte{}, view...)
	badStatus[5] = byte(membership.Left) + 1 // 0x90 0x14 count len 'A' status
	return map[string][]byte{
		"view":           view,
		"empty":          (&announceMsg{}).AppendTo(nil),
		"truncated":      view[:len(view)-3],
		"trailing":       append(append([]byte{}, view...), 0x00),
		"inflated-count": inflateCount(view, 2),
		"bad-status":     badStatus,
	}
}

// FuzzAnnounce fuzzes the decoder of membership announcements, the one
// payload a node accepts from any peer at any time: it must never panic,
// must refuse what it refuses as wire.ErrCorrupt, must not allocate out of
// proportion to its input whatever member count the input declares, and
// whatever it accepts names only known statuses and re-encodes to exactly
// the input bytes.
func FuzzAnnounce(f *testing.F) {
	for _, data := range announceSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var am announceMsg
		var err error
		checkAllocs(t, len(data), func() { err = am.DecodeFrom(data) })
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("refused with %v, want wire.ErrCorrupt", err)
			}
			return
		}
		for _, m := range am.Members {
			if m.Status > membership.Left {
				t.Fatalf("accepted member %+v with an unknown status", m)
			}
		}
		if again := am.AppendTo(nil); !bytes.Equal(again, data) {
			t.Fatalf("accepted announce re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}

// TestAnnounceRoundTrip: a view survives the wire, and only the seeds that
// are views decode.
func TestAnnounceRoundTrip(t *testing.T) {
	seeds := announceSeeds()
	var am announceMsg
	if err := am.DecodeFrom(seeds["view"]); err != nil {
		t.Fatal(err)
	}
	want := []membership.Member{{Name: "A", Epoch: 1}, {Name: "B", Status: membership.Suspect, Epoch: 300}, {Name: "node-C", Status: membership.Left, Epoch: 1 << 40}}
	if !reflect.DeepEqual(am.Members, want) {
		t.Errorf("view = %+v, want %+v", am.Members, want)
	}
	if err := am.DecodeFrom(seeds["empty"]); err != nil || am.Members != nil {
		t.Errorf("empty view = %+v, %v", am.Members, err)
	}
	gobEnc, err := wire.Encode(&announceMsg{Members: want})
	if err != nil {
		t.Fatal(err)
	}
	seeds["gob"] = gobEnc
	for _, name := range []string{"truncated", "trailing", "inflated-count", "bad-status", "gob"} {
		if err := new(announceMsg).DecodeFrom(seeds[name]); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s announce: %v, want ErrCorrupt", name, err)
		}
	}
}

// TestContainerLogBytesMatchEncodedSize: the log size a container encode
// reports is the size of a standalone core.Log.AppendTo given the same
// itinerary, for every sample container — the name table of the log
// starts where its entries start, so the two agree. Outside a container
// every savepoint's itinerary is inline: the step-8 tour-forward log,
// whose one savepoint recorded the container's itinerary, is bigger there
// by that itinerary's bytes (core.Log.EncodedSize).
func TestContainerLogBytesMatchEncodedSize(t *testing.T) {
	samples := sampleContainers(t)
	samples["tour-forward-step8"] = tourForwardStep8(t)
	for name, c := range samples {
		_, logBytes, err := encodeContainer(c)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if c.Agent != nil && c.Agent.Log != nil {
			itin, err := c.Agent.Itin.AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			log, at, err := c.Agent.Log.AppendTo(nil, itin)
			if err != nil {
				t.Fatal(err)
			}
			want = len(log) - at
		}
		if logBytes != want {
			t.Errorf("%s: encode reports %d log bytes, a standalone encode given its itinerary %d", name, logBytes, want)
		}
	}
	c := samples["tour-forward-step8"]
	_, logBytes, err := encodeContainer(c)
	if err != nil {
		t.Fatal(err)
	}
	itin, err := c.Agent.Itin.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if size, err := c.Agent.Log.EncodedSize(); err != nil || size != logBytes+len(itin) {
		t.Errorf("step-8 tour-forward log: %d B in its container, EncodedSize %d, %v; want %d", logBytes, size, err, logBytes+len(itin))
	}
}

// tourForwardStep8 builds the container a tour-forward agent ships after
// its eighth step: bench's tour shape — eight bench.work steps round-robin
// over four nodes, then bench.decide — under state logging, with the even
// steps logging one mixed entry and the odd ones a resource and an agent
// entry, as the runtime appends them (node.process).
func tourForwardStep8(t testing.TB) *Container {
	t.Helper()
	node := func(i int) string { return fmt.Sprintf("n%d", i%4) }
	sub := &itinerary.Sub{ID: "tour"}
	for i := 0; i < 8; i++ {
		sub.Entries = append(sub.Entries, itinerary.Step{Method: "bench.work", Loc: node(1 + i)})
	}
	sub.Entries = append(sub.Entries, itinerary.Step{Method: "bench.decide", Loc: node(1)})
	it, err := itinerary.New(sub)
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.NewAt("o0-000001", "", it, node(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WRO.Set("bank", "bank3"); err != nil {
		t.Fatal(err)
	}
	if err := a.WRO.Set("mixed", 0b01010101); err != nil {
		t.Fatal(err)
	}
	if err := AppendInitialSavepoints(a, entered, core.StateLogging); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 8; seq++ {
		here, mixed := node(1+seq), seq%2 == 0
		a.Log.Append(&core.BeginStepEntry{Node: here, Seq: seq})
		if mixed {
			a.Log.Append(&core.OpEntry{Kind: core.OpMixed, Op: "bench.comp.mixed", Params: core.NewParams().Set("bank", "bank3").Set("id", a.ID)})
		} else {
			a.Log.Append(&core.OpEntry{Kind: core.OpResource, Op: "bench.comp.resource", Params: core.NewParams().Set("bank", "bank3").Set("id", a.ID)})
			a.Log.Append(&core.OpEntry{Kind: core.OpAgent, Op: "bench.comp.agent", Params: core.NewParams().Set("id", a.ID)})
		}
		a.Log.Append(&core.EndStepEntry{Node: here, Seq: seq, HasMixed: mixed})
		a.StepSeq = seq + 1
		move, err := a.Itin.AdvanceHook(a.Cursor, itinerary.LocalityOrder(here))
		if err != nil {
			t.Fatal(err)
		}
		a.Cursor = move.Next
	}
	return &Container{Mode: ModeStep, Agent: a}
}

// TestTourForwardContainerSize pins what a tour-forward agent carries
// after its eighth step: 528 bytes, 404 of them log. Commit 0b60b8b, whose
// savepoint kept its system state under three reserved keys of its SRO
// image with a second copy of the itinerary, encoded the same agent in
// 648 bytes, 524 of them log; commit 4840178, which wrote every name in
// full, in 1 037 bytes, 832 of them log. A change here changes
// wire_kb_per_agent; re-pin it with the new number's reason.
func TestTourForwardContainerSize(t *testing.T) {
	data, logBytes, err := encodeContainer(tourForwardStep8(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 528 || logBytes != 404 {
		t.Errorf("step-8 tour-forward container: %d bytes, %d of them log; want 528 and 404", len(data), logBytes)
	}
}
