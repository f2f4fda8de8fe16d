package repl_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/stable"
	"repro/internal/stable/repl"
)

// testNet routes frames between peers by replication endpoint name,
// synchronously, with an optional drop hook.
type testNet struct {
	mu    sync.Mutex
	peers map[string]*repl.Peer
	drop  func(to, kind string) bool
}

func newTestNet() *testNet {
	return &testNet{peers: make(map[string]*repl.Peer)}
}

func (tn *testNet) register(node string, p *repl.Peer) {
	tn.mu.Lock()
	tn.peers[repl.Endpoint(node)] = p
	tn.mu.Unlock()
}

func (tn *testNet) sender(node string) repl.SendFunc {
	from := repl.Endpoint(node)
	return func(to, kind string, payload []byte) {
		tn.mu.Lock()
		p := tn.peers[to]
		drop := tn.drop
		tn.mu.Unlock()
		if p == nil || (drop != nil && drop(to, kind)) {
			return
		}
		_ = p.Deliver(from, kind, payload)
	}
}

func (tn *testNet) setDrop(f func(to, kind string) bool) {
	tn.mu.Lock()
	tn.drop = f
	tn.mu.Unlock()
}

// follower bundles one follower node's host, its replica store of the
// shard under test, and its peer.
type follower struct {
	name  string
	store stable.Store
	host  *repl.Host
	peer  *repl.Peer
}

func newFollower(t *testing.T, tn *testNet, name, shard string) *follower {
	t.Helper()
	f := &follower{name: name, store: stable.NewMemStore(nil)}
	f.host = repl.NewHost(name, nil)
	if err := f.host.Attach(shard, f.store); err != nil {
		t.Fatal(err)
	}
	f.peer = repl.NewPeer(name, nil, f.host, tn.sender(name))
	tn.register(name, f.peer)
	return f
}

// newPrimary wraps a fresh mem store as the primary of shard "p".
func newPrimary(t *testing.T, tn *testNet, acks int, followers ...string) (*repl.Store, stable.Store) {
	t.Helper()
	inner := stable.NewMemStore(nil)
	s, err := repl.Wrap(inner, repl.Options{
		Shard:       "p",
		Followers:   followers,
		Acks:        acks,
		ResendEvery: time.Hour, // only explicit Sync() in tests
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	tn.register("p", repl.NewPeer("p", s, nil, tn.sender("p")))
	return s, inner
}

// dump flattens a store (including the hidden meta record) for
// byte-identical comparison.
func dump(t *testing.T, s stable.Reader) string {
	t.Helper()
	keys, err := s.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, k := range keys {
		v, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("get %q: ok=%v err=%v", k, ok, err)
		}
		fmt.Fprintf(&buf, "%q=%q\n", k, v)
	}
	return buf.String()
}

func TestFrameRoundtrip(t *testing.T) {
	rec := repl.Record{Shard: "n1", Epoch: 3, LSN: 42, Ops: []stable.Op{
		stable.Put("a", []byte("x")),
		stable.Del("b"),
		stable.Put("c", nil), // nil-valued put must survive as a put... see below
	}}
	// A nil-valued Put is indistinguishable from a Del on the wire (the
	// codec reserves length 0 for deletes); normalize the expectation.
	rec.Ops[2] = stable.Del("c")
	got, err := repl.DecodeRecord(repl.EncodeRecord(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != rec.Shard || got.Epoch != rec.Epoch || got.LSN != rec.LSN || len(got.Ops) != 3 {
		t.Fatalf("record roundtrip: got %+v", got)
	}
	if got.Ops[0].Key != "a" || string(got.Ops[0].Value) != "x" || got.Ops[1].Value != nil {
		t.Fatalf("ops roundtrip: got %+v", got.Ops)
	}

	ack := repl.Ack{Shard: "n1", Epoch: 1, LSN: 7}
	if got, err := repl.DecodeAck(repl.EncodeAck(ack)); err != nil || got != ack {
		t.Fatalf("ack roundtrip: %+v, %v", got, err)
	}

	// Corruption must be rejected, not misparsed.
	frame := repl.EncodeRecord(rec)
	frame[len(frame)-1] ^= 0xff
	if _, err := repl.DecodeRecord(frame); err == nil {
		t.Fatal("corrupted frame decoded without error")
	}
	if _, err := repl.DecodeAck(repl.EncodeAck(ack)[:5]); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
}

func TestReplicateBasicAndMetaHidden(t *testing.T) {
	tn := newTestNet()
	s, inner := newPrimary(t, tn, 2, "f1", "f2")
	f1 := newFollower(t, tn, "f1", "p")
	f2 := newFollower(t, tn, "f2", "p")

	if err := s.Apply(stable.Put("k1", []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(stable.Put("k2", []byte("v2")), stable.Del("k1")); err != nil {
		t.Fatal(err)
	}

	// Quorum acks mean both followers hold both records already.
	for _, f := range []*follower{f1, f2} {
		if d := dump(t, f.store); d != dump(t, inner) {
			t.Errorf("follower %s diverged:\n%s\nvs primary:\n%s", f.name, d, dump(t, inner))
		}
	}

	// The wrapper hides the meta record from readers...
	if _, ok, _ := s.Get("\x00repl"); ok {
		t.Error("meta record visible through Get")
	}
	keys, err := s.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k[0] == 0 {
			t.Errorf("meta record visible through Keys: %q", k)
		}
	}
	// ...but persists the position in the engine.
	if epoch, lsn, _ := repl.ReadMeta(inner); epoch != 0 || lsn != 2 {
		t.Errorf("meta = (%d, %d), want (0, 2)", epoch, lsn)
	}
	st := s.ReplStatus()
	if st.LSN != 2 || st.Acked["f1"] != 2 || st.Acked["f2"] != 2 {
		t.Errorf("status = %+v", st)
	}
}

func TestQuorumBlocksUntilAck(t *testing.T) {
	tn := newTestNet()
	s, _ := newPrimary(t, tn, 1, "f1")
	newFollower(t, tn, "f1", "p")

	tn.setDrop(func(to, kind string) bool { return kind == repl.KindAppend })
	done := make(chan error, 1)
	go func() { done <- s.Apply(stable.Put("k", []byte("v"))) }()
	select {
	case err := <-done:
		t.Fatalf("Apply returned without a follower ack (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	tn.setDrop(nil)
	s.Sync() // repair the dropped append
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Apply still blocked after the follower caught up")
	}
}

func TestUnbindReleasesQuorumWait(t *testing.T) {
	tn := newTestNet()
	s, _ := newPrimary(t, tn, 1, "f1")
	newFollower(t, tn, "f1", "p")
	tn.setDrop(func(to, kind string) bool { return kind == repl.KindAppend })
	done := make(chan error, 1)
	go func() { done <- s.Apply(stable.Put("k", []byte("v"))) }()
	time.Sleep(20 * time.Millisecond)
	s.Unbind()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err) // the commit is locally durable; the wait just ends
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Unbind did not release the quorum wait")
	}
}

func TestCatchUpTailAndSnapshot(t *testing.T) {
	tn := newTestNet()
	inner := stable.NewMemStore(nil)
	s, err := repl.Wrap(inner, repl.Options{
		Shard: "p", Followers: []string{"f1"}, Acks: 0,
		Retain: 4, ResendEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	tn.register("p", repl.NewPeer("p", s, nil, tn.sender("p")))
	f1 := newFollower(t, tn, "f1", "p")

	// Drop everything while committing 3 records: within the retained
	// tail, Sync repairs record by record.
	tn.setDrop(func(to, kind string) bool { return true })
	for i := 0; i < 3; i++ {
		if err := s.Apply(stable.Put(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	tn.setDrop(nil)
	s.Sync()
	if d, want := dump(t, f1.store), dump(t, inner); d != want {
		t.Fatalf("tail catch-up diverged:\n%s\nvs\n%s", d, want)
	}

	// Now fall behind beyond the tail: catch-up must go through a
	// snapshot manifest.
	tn.setDrop(func(to, kind string) bool { return true })
	for i := 0; i < 10; i++ {
		if err := s.Apply(stable.Put(fmt.Sprintf("k%d", i), []byte("v2")), stable.Del("k0")); err != nil {
			t.Fatal(err)
		}
	}
	tn.setDrop(func(to, kind string) bool { return kind == repl.KindAppend })
	s.Sync() // only the snapshot gets through
	if d, want := dump(t, f1.store), dump(t, inner); d != want {
		t.Fatalf("snapshot catch-up diverged:\n%s\nvs\n%s", d, want)
	}
}

func TestPromotionEpochFencesOldPrimary(t *testing.T) {
	tn := newTestNet()
	s, _ := newPrimary(t, tn, 2, "f1", "f2")
	f1 := newFollower(t, tn, "f1", "p")
	f2 := newFollower(t, tn, "f2", "p")
	if err := s.Apply(stable.Put("k", []byte("v1"))); err != nil {
		t.Fatal(err)
	}

	// "p" dies; f1's replica is promoted to authoritative.
	s.Unbind()
	promotedStore, ok := f1.host.Detach("p")
	if !ok {
		t.Fatal("f1 holds no replica of p")
	}
	promoted, err := repl.Wrap(promotedStore, repl.Options{
		Shard: "p", Followers: []string{"f2"}, Acks: 1,
		ResendEvery: time.Hour, Promote: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = promoted.Close() })
	tn.register("p", repl.NewPeer("p", promoted, nil, tn.sender("p")))

	if err := promoted.Apply(stable.Put("k", []byte("v2"))); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := f2.store.Get("k"); string(v) != "v2" {
		t.Fatalf("f2 did not follow the promoted primary: k=%q", v)
	}

	// A record from the deposed primary's epoch must be rejected by the
	// follower that already advanced.
	stale := repl.EncodeRecord(repl.Record{Shard: "p", Epoch: 0, LSN: 2, Ops: []stable.Op{stable.Put("k", []byte("stale"))}})
	if _, err := f2.host.ApplyRecord(mustDecodeRecord(t, stale)); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := f2.store.Get("k"); string(v) != "v2" {
		t.Fatalf("stale-epoch record overwrote promoted state: k=%q", v)
	}
	if st := promoted.ReplStatus(); st.Epoch != 1 {
		t.Fatalf("promoted epoch = %d, want 1", st.Epoch)
	}
}

func mustDecodeRecord(t *testing.T, frame []byte) repl.Record {
	t.Helper()
	rec, err := repl.DecodeRecord(frame)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestDivergenceProperty is the randomized convergence property: under
// seeded random message drops, follower reboots, follower wipes and
// primary restarts, every follower's replica is byte-identical to the
// primary's store at quiescence.
func TestDivergenceProperty(t *testing.T) {
	const (
		seeds     = 10
		rounds    = 120
		followerN = 3
	)
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tn := newTestNet()
			inner := stable.NewMemStore(nil)
			names := make([]string, followerN)
			for i := range names {
				names[i] = fmt.Sprintf("f%d", i)
			}
			wrap := func(st stable.Store, promote bool) *repl.Store {
				s, err := repl.Wrap(st, repl.Options{
					Shard: "p", Followers: names, Acks: 0,
					Retain: 4, ResendEvery: time.Hour, Promote: promote,
				})
				if err != nil {
					t.Fatal(err)
				}
				tn.register("p", repl.NewPeer("p", s, nil, tn.sender("p")))
				return s
			}
			s := wrap(inner, false)
			followers := make([]*follower, followerN)
			for i, n := range names {
				followers[i] = newFollower(t, tn, n, "p")
			}

			// Random drops throughout the active phase.
			tn.setDrop(func(to, kind string) bool { return rng.Intn(100) < 30 })
			keys := []string{"a", "b", "c", "d", "e", "f"}
			for r := 0; r < rounds; r++ {
				switch rng.Intn(10) {
				case 0: // follower reboot: fresh host resumed from the persisted position
					i := rng.Intn(followerN)
					f := followers[i]
					f.host = repl.NewHost(f.name, nil)
					if err := f.host.Attach("p", f.store); err != nil {
						t.Fatal(err)
					}
					f.peer = repl.NewPeer(f.name, nil, f.host, tn.sender(f.name))
					tn.register(f.name, f.peer)
				case 1: // follower wipe: permanent loss, empty store
					i := rng.Intn(followerN)
					f := followers[i]
					f.store = stable.NewMemStore(nil)
					f.host = repl.NewHost(f.name, nil)
					if err := f.host.Attach("p", f.store); err != nil {
						t.Fatal(err)
					}
					f.peer = repl.NewPeer(f.name, nil, f.host, tn.sender(f.name))
					tn.register(f.name, f.peer)
				case 2: // primary restart: close and re-wrap the same engine
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s = wrap(inner, false)
				default: // a random batch
					n := 1 + rng.Intn(3)
					batch := make([]stable.Op, 0, n)
					for j := 0; j < n; j++ {
						k := keys[rng.Intn(len(keys))]
						if rng.Intn(4) == 0 {
							batch = append(batch, stable.Del(k))
						} else {
							batch = append(batch, stable.Put(k, []byte(fmt.Sprintf("r%d.%d", r, j))))
						}
					}
					if err := s.Apply(batch...); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Quiescence: lossless network, repair until converged.
			tn.setDrop(nil)
			want := dump(t, inner)
			deadline := time.Now().Add(10 * time.Second)
			for {
				s.Sync()
				st := s.ReplStatus()
				converged := true
				for _, f := range names {
					if st.Acked[f] < st.LSN {
						converged = false
					}
				}
				if converged {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("followers never converged: %+v", st)
				}
			}
			for _, f := range followers {
				if d := dump(t, f.store); d != want {
					t.Errorf("seed %d: follower %s diverged:\n%s\nvs primary:\n%s", seed, f.name, d, want)
				}
			}
			_ = s.Close()
		})
	}
}

// gatedStore holds every Apply at a gate the test opens one commit at a
// time, until open is closed.
type gatedStore struct {
	stable.Store
	entered chan struct{} // one token per Apply that reached the gate
	release chan struct{} // one token lets one Apply through
	open    chan struct{} // closed: the gate stands open (test teardown)
}

func (g *gatedStore) Apply(batch ...stable.Op) error {
	select {
	case g.entered <- struct{}{}:
		select {
		case <-g.release:
		case <-g.open:
		}
	case <-g.open:
	}
	return g.Store.Apply(batch...)
}

// TestApplyLeaderHandsOffAfterOwnGroup: a group-commit leader commits
// the group its own batch is in and returns; callers queued behind it
// elect the next leader. (The former loop kept one caller committing
// other callers' groups for as long as the queue was non-empty.)
func TestApplyLeaderHandsOffAfterOwnGroup(t *testing.T) {
	gate := &gatedStore{
		Store:   stable.NewMemStore(nil),
		entered: make(chan struct{}),
		release: make(chan struct{}),
		open:    make(chan struct{}),
	}
	s, err := repl.Wrap(gate, repl.Options{Shard: "p", ResendEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(gate.open) // first: Close waits out a commit held at the gate

	first := make(chan error, 1)
	go func() { first <- s.Apply(stable.Put("a", []byte("1"))) }()
	<-gate.entered // the first caller leads and its group is at the gate

	second := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		second <- s.Apply(stable.Put("b", []byte("2")))
	}()
	<-started
	// Give the second applier time to queue behind the leader. The pause
	// only makes the old loop's fault reproduce; the assertions below wait
	// on events.
	time.Sleep(20 * time.Millisecond)

	gate.release <- struct{}{} // the first group commits; the second stays gated
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first Apply did not return after its own group committed: the leader is committing another caller's group")
	}

	<-gate.entered
	gate.release <- struct{}{}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
}
