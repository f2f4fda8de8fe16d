package membership

import "testing"

func TestMergeSemilattice(t *testing.T) {
	a := Member{Name: "w0", Status: Alive, Epoch: 1}
	s := Member{Name: "w0", Status: Suspect, Epoch: 1}
	l := Member{Name: "w0", Status: Left, Epoch: 2}
	stale := Member{Name: "w0", Status: Alive, Epoch: 3}

	if got := merge(a, s); got != s {
		t.Fatalf("equal-epoch merge = %+v, want the more advanced status", got)
	}
	if got := merge(s, a); got != s {
		t.Fatalf("merge not commutative: %+v", got)
	}
	if got := merge(l, s); got != l {
		t.Fatalf("higher epoch lost: %+v", got)
	}
	// A later epoch resurrects deliberately (operator re-admits a node).
	if got := merge(l, stale); got != stale {
		t.Fatalf("epoch 3 should win over Left@2: %+v", got)
	}
	if got := merge(a, a); got != a {
		t.Fatalf("merge not idempotent: %+v", got)
	}
}

func TestManagerMergeAndFloodHints(t *testing.T) {
	m := NewManager("w0", Member{Name: "w1"}, Member{Name: "w2"})
	if got, _ := m.View().Get("w0"); got.Epoch != 1 || got.Status != Alive {
		t.Fatalf("self entry = %+v", got)
	}

	// A remote view with news changes us; our extra knowledge marks the
	// remote stale so the caller replies (anti-entropy).
	changed, stale := m.Merge(View{Members: []Member{
		{Name: "w1", Status: Alive, Epoch: 1},
		{Name: "w3", Status: Alive, Epoch: 1},
	}})
	if !changed {
		t.Fatal("merge with news reported no change")
	}
	if !stale {
		t.Fatal("remote missing w0/w2 should read as stale")
	}

	// Re-merging the same view is a no-op (idempotent flood).
	if changed, _ := m.Merge(View{Members: []Member{
		{Name: "w1", Status: Alive, Epoch: 1},
		{Name: "w3", Status: Alive, Epoch: 1},
	}}); changed {
		t.Fatal("idempotent re-merge reported a change")
	}

	// A stale entry cannot downgrade a newer one.
	m.SetStatus("w3", Left)
	if changed, stale := m.Merge(View{Members: []Member{{Name: "w3", Status: Alive, Epoch: 1}}}); changed || !stale {
		t.Fatalf("stale merge changed=%v stale=%v, want false,true", changed, stale)
	}
	if m.Status("w3") != Left {
		t.Fatal("stale announcement resurrected a Left member")
	}
}

func TestManagerRingTracksStatus(t *testing.T) {
	m := NewManager("w0", Member{Name: "w1"}, Member{Name: "w2"})
	inRing := func(name string) bool {
		for _, mm := range m.Ring().Members() {
			if mm == name {
				return true
			}
		}
		return false
	}
	if !inRing("w0") || !inRing("w1") || !inRing("w2") {
		t.Fatalf("seed members missing from ring: %v", m.Ring().Members())
	}
	// Suspect members keep their ring slice (temporary-fault model)...
	m.SetStatus("w1", Suspect)
	if !inRing("w1") {
		t.Fatal("suspect member dropped from ring")
	}
	// ...only Left removes them.
	m.SetStatus("w1", Left)
	if inRing("w1") {
		t.Fatal("left member still on ring")
	}
	if got := m.Peers(); len(got) != 1 || got[0] != "w2" {
		t.Fatalf("peers = %v, want [w2]", got)
	}
}

func TestManagerLeftAndConvergence(t *testing.T) {
	// Three managers converging by exchanging views pairwise in an
	// arbitrary order reach the same view — the semilattice property the
	// wire flood relies on.
	ms := []*Manager{
		NewManager("w0", Member{Name: "w1"}, Member{Name: "w2"}),
		NewManager("w1", Member{Name: "w0"}),
		NewManager("w2"),
	}
	ms[0].SetStatus("w0", Suspect)
	ms[2].SetStatus("w2", Left)
	if !ms[2].Left() {
		t.Fatal("w2 manager does not report itself Left")
	}
	for i := 0; i < 3; i++ { // a few rounds of all-pairs exchange
		for _, a := range ms {
			for _, b := range ms {
				b.Merge(a.View())
			}
		}
	}
	want := ms[0].View()
	for _, m := range ms[1:] {
		if !m.View().Equal(want) {
			t.Fatalf("views diverged:\n%v\nvs\n%v", want, m.View())
		}
	}
	if o := ms[0].Ring().Owner("k"); o == "w2" {
		t.Fatal("left node still owns keys after convergence")
	}
}
