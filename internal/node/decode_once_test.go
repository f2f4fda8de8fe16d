package node

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/stable"
)

// soloNode starts one node "p" on a fresh Sim and returns it with the
// endpoint of the owner "own" its agents report to.
func soloNode(t *testing.T, store stable.Store, reg *agent.Registry, counters *metrics.Counters) (*Node, network.Endpoint) {
	t.Helper()
	sim := network.NewSim(network.SimConfig{})
	t.Cleanup(sim.Close)
	ep, err := sim.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	own, err := sim.Endpoint("own")
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Name: "p", RetryDelay: time.Millisecond, Counters: counters}, ep, store, reg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	<-n.Ready()
	return n, own
}

// localTour enqueues an agent whose itinerary is steps times method on
// node "p" and returns the owner's completion notification.
func localTour(t *testing.T, n *Node, own network.Endpoint, method string, steps int) Done {
	t.Helper()
	entries := make([]itinerary.Entry, steps)
	for i := range entries {
		entries[i] = itinerary.Step{Method: method, Loc: "p"}
	}
	it, err := itinerary.New(&itinerary.Sub{ID: "tour", Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("tourist", "own", it)
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendInitialSavepoints(a, entered, core.StateLogging); err != nil {
		t.Fatal(err)
	}
	data, err := EncodeContainer(&Container{Mode: ModeStep, Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Queue().Enqueue(a.ID, data); err != nil {
		t.Fatal(err)
	}
	return awaitDone(t, own)
}

func awaitDone(t *testing.T, own network.Endpoint) Done {
	t.Helper()
	msg := recvMsg(t, own, 10*time.Second)
	if msg.Kind != KindAgentDone {
		t.Fatalf("owner got %s, want %s", msg.Kind, KindAgentDone)
	}
	done, err := DecodeDone(msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// TestDecodeOncePerAttempt: with step hints registered the container the
// scheduler's hint pass decodes is the one the step executes on — an
// 8-step tour costs eight full decodes, one per committed step attempt,
// not sixteen.
func TestDecodeOncePerAttempt(t *testing.T) {
	reg := agent.NewRegistry()
	var hinted, executed []*agent.Space
	var mu sync.Mutex
	if err := reg.RegisterStep("visit", func(ctx agent.StepContext) error {
		mu.Lock()
		executed = append(executed, ctx.WRO())
		mu.Unlock()
		return ctx.WRO().Set(fmt.Sprintf("seen%d", ctx.StepSeq()), ctx.NodeName())
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterStepHints("visit", func(a *agent.Agent, _ itinerary.Step) []string {
		mu.Lock()
		hinted = append(hinted, a.WRO)
		mu.Unlock()
		return []string{"bank"}
	}); err != nil {
		t.Fatal(err)
	}
	counters := &metrics.Counters{}
	n, own := soloNode(t, stable.NewMemStore(nil), reg, counters)
	if done := localTour(t, n, own, "visit", 8); done.Failed {
		t.Fatalf("tour failed: %s", done.Reason)
	}
	snap := counters.Snapshot()
	if snap.StepTxns != 8 || snap.SchedClaims != 8 {
		t.Fatalf("step txns %d, claims %d; want 8 and 8", snap.StepTxns, snap.SchedClaims)
	}
	if got := n.decodes.Load(); got != snap.SchedClaims {
		t.Errorf("%d full container decodes for %d step attempts", got, snap.SchedClaims)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(hinted, executed) {
		t.Errorf("steps did not execute on the containers the hints were shown")
	}
}

// TestRetryStartsFromStoredBytes: a failed attempt's mutations of the
// decoded agent die with it. The second attempt is a fresh claim of the
// stored bytes — it must not see what the first wrote, even though each
// attempt executes on the container its hint pass decoded.
func TestRetryStartsFromStoredBytes(t *testing.T) {
	reg := agent.NewRegistry()
	var sawStale []bool
	if err := reg.RegisterStep("flaky", func(ctx agent.StepContext) error {
		stale, err := ctx.WRO().Has("scribble")
		if err != nil {
			return err
		}
		sawStale = append(sawStale, stale) // one worker: no lock needed
		if err := ctx.WRO().Set("scribble", "first attempt was here"); err != nil {
			return err
		}
		if len(sawStale) == 1 {
			return errors.New("transient failure")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterStepHints("flaky", agent.StaticHint("bank")); err != nil {
		t.Fatal(err)
	}
	counters := &metrics.Counters{}
	n, own := soloNode(t, stable.NewMemStore(nil), reg, counters)
	if done := localTour(t, n, own, "flaky", 1); done.Failed {
		t.Fatalf("tour failed: %s", done.Reason)
	}
	if !reflect.DeepEqual(sawStale, []bool{false, false}) {
		t.Errorf("attempts saw the scribble: %v, want [false false]", sawStale)
	}
	if claims := counters.Snapshot().SchedClaims; claims != 2 || n.decodes.Load() != claims {
		t.Errorf("%d claims, %d decodes; want 2 and 2", claims, n.decodes.Load())
	}
}

// TestIncompleteContainerFailsAgent: a well-formed container that lacks a
// data space or a log (a malformed launch) fails its agent permanently
// instead of crashing the worker.
func TestIncompleteContainerFailsAgent(t *testing.T) {
	reg := agent.NewRegistry()
	if err := reg.RegisterStep("pay", func(agent.StepContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	n, own := soloNode(t, stable.NewMemStore(nil), reg, nil)
	c := sampleContainers(t)["nil-log"]
	c.Agent.Owner = "own"
	c.Agent.Cursor = itinerary.Cursor{Path: []int{0, 0}}
	data, err := EncodeContainer(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Queue().Enqueue(c.Agent.ID, data); err != nil {
		t.Fatal(err)
	}
	done := awaitDone(t, own)
	if !done.Failed || !strings.Contains(done.Reason, "lacks") {
		t.Errorf("done = %+v, want a permanent failure naming what the container lacks", done)
	}
}

// TestGarbageAtQueueHeadIsDropped: a store whose queue head holds bytes
// that are no container does not wedge the node — the entry is handed out
// like any other, dropped as poisoned by failAgent, and the agent queued
// behind it completes. (With the queue's gob envelope a value that did not
// decode made every Claim return an error, for good.)
func TestGarbageAtQueueHeadIsDropped(t *testing.T) {
	reg := agent.NewRegistry()
	if err := reg.RegisterStep("pay", func(agent.StepContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	store := stable.NewMemStore(nil)
	const head = "q/e/0000000000000000/junk"
	if err := store.Apply(stable.Put("q/seq", []byte("1")), stable.Put(head, []byte("\x00no container"))); err != nil {
		t.Fatal(err)
	}
	n, own := soloNode(t, store, reg, nil)
	if done := localTour(t, n, own, "pay", 2); done.Failed {
		t.Fatalf("tour behind the garbage failed: %s", done.Reason)
	}
	if _, ok, err := store.Get(head); err != nil || ok {
		t.Errorf("garbage entry still queued (present=%v, err=%v), want it dropped", ok, err)
	}
}

// TestRefusesGobContainers: a store holding what an older runtime wrote
// stops the node from starting and is left exactly as it was — a
// container in the gob encoding of commit 5015b40, committed or merely
// staged, the gob envelopes commit fd17232 wrapped around a binary
// container in the queue and in a completion record, the prepared
// insertion commit e4fe5c0 kept with its container under q/s/, the
// marker of a prepared insertion commit 6471191 kept under q/s/, the
// coin-list till of commit 1b58917's shop, the gob resource records and
// branch records of commit 60b3006, a coordinator's decision record and
// a coordinator-decided (0x38) branch of commit a03745a, and a 0x11
// container as commits 4840178 and c1c7f14 wrote it, queued or in a
// completion record (testdata,
// generated at those commits; the resource records live in
// internal/resource, the branches in internal/txn). A queue entry,
// resource record or branch of other garbage does not, and neither does
// an empty queue; any q/s/ or txn/decision/ key does.
func TestRefusesGobContainers(t *testing.T) {
	legacy := gobFixture(t)
	newNode := func(store stable.Store) error {
		sim := network.NewSim(network.SimConfig{})
		defer sim.Close()
		ep, err := sim.Endpoint("p")
		if err != nil {
			t.Fatal(err)
		}
		_, err = New(Config{Name: "p"}, ep, store, agent.NewRegistry())
		return err
	}
	queue := func(store stable.Store) *stable.Queue { return stable.NewQueue(store, "q/") }
	for name, tc := range map[string]struct {
		put  func(store stable.Store) error
		want []string // what the refusal names
	}{
		"committed": {
			func(s stable.Store) error { return queue(s).Enqueue("legacy-agent", legacy) },
			[]string{"5015b40", `"legacy-agent"`}},
		"staged": {
			// A prepared insertion as commits e4fe5c0..6471191 wrote it:
			// the container at its entry key, hidden by a marker.
			func(s stable.Store) error {
				return s.Apply(stable.Put("q/seq", []byte("1")),
					stable.Put("q/e/0000000000000000/legacy-agent", legacy),
					stable.Put("q/s/co#1", fixture(t, "queue-marker-6471191.bin")))
			},
			[]string{"5015b40", `"legacy-agent"`}},
		"marker-6471191": {
			func(s stable.Store) error {
				return s.Apply(stable.Put("q/seq", []byte("1")),
					stable.Put("q/e/0000000000000000/agent-6471191", vcContainer(t, "agent-6471191", "p")),
					stable.Put("q/s/co#1", fixture(t, "queue-marker-6471191.bin")))
			},
			[]string{"6471191", `"q/s/co#1"`}},
		"envelope-committed": {
			func(s stable.Store) error {
				return s.Apply(stable.Put("q/seq", []byte("1")), stable.Put("q/e/0000000000000000", fixture(t, "queue-entry-fd17232.bin")))
			},
			[]string{"fd17232", `"q/e/0000000000000000"`}},
		"envelope-staged": {
			func(s stable.Store) error {
				return s.Apply(stable.Put("q/seq", []byte("1")), stable.Put("q/s/co#1", fixture(t, "queue-staged-fd17232.bin")))
			},
			[]string{"fd17232", `"q/s/co#1"`}},
		"staged-with-container": {
			func(s stable.Store) error {
				return s.Apply(stable.Put("q/seq", []byte("1")), stable.Put("q/s/co#1", fixture(t, "queue-staged-e4fe5c0.bin")))
			},
			[]string{"e4fe5c0", `"q/s/co#1"`}},
		"envelope-done": {
			func(s stable.Store) error {
				return s.Apply(stable.Put("done/legacy-agent", fixture(t, "done-record-fd17232.bin")))
			},
			[]string{"fd17232", `"legacy-agent"`}},
		"shop-coin-till": {
			func(s stable.Store) error {
				return s.Apply(stable.Put("res/shop/shop", fixture(t, "../../resource/testdata/shop-till-1b58917.bin")))
			},
			[]string{"1b58917", `"res/shop/shop"`}},
		"bank-gob": {
			func(s stable.Store) error {
				return s.Apply(stable.Put("res/bank/bank", fixture(t, "../../resource/testdata/bank-gob-60b3006.bin")))
			},
			[]string{"60b3006", `"res/bank/bank"`}},
		"shop-gob": {
			func(s stable.Store) error {
				return s.Apply(stable.Put("res/shop/shop", fixture(t, "../../resource/testdata/shop-gob-60b3006.bin")))
			},
			[]string{"60b3006", `"res/shop/shop"`}},
		"branch-gob": {
			func(s stable.Store) error {
				return s.Apply(stable.Put("txn/branch/co#7", fixture(t, "../../txn/testdata/branch-gob-60b3006.bin")))
			},
			[]string{"60b3006", `"co#7"`}},
		"decision-record-a03745a": {
			func(s stable.Store) error {
				return s.Apply(stable.Put("txn/decision/co#7", fixture(t, "decision-record-a03745a.bin")))
			},
			[]string{"a03745a", `"co#7"`}},
		"container-0x11-4840178": {
			func(s stable.Store) error { return queue(s).Enqueue("fwd", fixture(t, "container-4840178.bin")) },
			[]string{"4840178", `"fwd"`, "0x11"}},
		"container-epoch-c1c7f14": {
			func(s stable.Store) error { return queue(s).Enqueue("fwd", fixture(t, "container-epoch-c1c7f14.bin")) },
			[]string{"4840178", `"fwd"`, "0x11"}},
		"done-record-0x11": {
			func(s stable.Store) error {
				rec := appendDoneRec("owner", &doneMsg{AgentID: "fwd", Data: fixture(t, "container-4840178.bin")})
				return s.Apply(stable.Put("done/fwd", rec))
			},
			[]string{"4840178", `"fwd"`, "0x11"}},
		"branch-0x38-a03745a": {
			func(s stable.Store) error {
				return s.Apply(stable.Put("txn/branch/co#7", fixture(t, "../../txn/testdata/branch-0x38-a03745a.bin")))
			},
			[]string{"a03745a", `"co#7"`}},
	} {
		t.Run(name, func(t *testing.T) {
			store := stable.NewMemStore(nil)
			if err := tc.put(store); err != nil {
				t.Fatal(err)
			}
			before := dumpStore(t, store)
			err := newNode(store)
			if err == nil {
				t.Fatal("New on an older runtime's store succeeded, want a refusal")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("refusal %q does not name %s", err, want)
				}
			}
			if after := dumpStore(t, store); !reflect.DeepEqual(after, before) {
				t.Errorf("refusal modified the store:\n before %v\n after  %v", before, after)
			}
		})
	}
	store := stable.NewMemStore(nil)
	if err := newNode(store); err != nil {
		t.Errorf("an empty store blocked the start: %v", err)
	}
	if err := queue(store).Enqueue("junk", []byte{0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := store.Apply(
		stable.Put("q/e/9999999999999999", []byte("\x00not even a queue record")),
		stable.Put("done/junk", []byte{0x00}),
		stable.Put("res/shop/junk", []byte{0x00}),
		stable.Put("res/bank/junk", []byte{0x00}),
		stable.Put("txn/branch/junk#1", []byte{0x00}),
	); err != nil {
		t.Fatal(err)
	}
	if err := newNode(store); err != nil {
		t.Errorf("garbage that is not gob blocked the start: %v", err)
	}
}

// dumpStore returns every key with its value.
func dumpStore(t *testing.T, store stable.Store) map[string]string {
	t.Helper()
	keys, err := store.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		v, _, err := store.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = string(v)
	}
	return out
}

func TestLaunchMessageRoundTrip(t *testing.T) {
	payload, err := EncodeLaunch("agent-9", []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var got launchMsg
	if err := got.DecodeFrom(payload); err != nil {
		t.Fatal(err)
	}
	if got.ID != "agent-9" || !reflect.DeepEqual(got.Data, []byte{1, 2, 3}) {
		t.Errorf("launch = %+v", got)
	}
	for name, in := range map[string][]byte{
		"truncated": payload[:len(payload)-1],
		"trailing":  append(append([]byte{}, payload...), 0),
		"done type": (&doneMsg{AgentID: "agent-9"}).AppendTo(nil),
		"gob":       gobFixture(t),
	} {
		if err := new(launchMsg).DecodeFrom(in); err == nil {
			t.Errorf("%s launch payload accepted", name)
		}
	}
}
