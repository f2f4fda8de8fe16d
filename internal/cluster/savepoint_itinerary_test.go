package cluster_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/node"
	"repro/internal/stable"
	"repro/internal/wire"
)

// queued maps the data dir of a cluster run under the "mem-queue-tap"
// engine to every container its nodes queued, in the order they did.
var queued sync.Map

type queueTap struct {
	mu         sync.Mutex
	containers []*node.Container
	errs       []string
}

type queueTapStore struct {
	stable.Store
	tap *queueTap
}

func (s *queueTapStore) Apply(batch ...stable.Op) error {
	for _, op := range batch {
		if !strings.HasPrefix(op.Key, "q/e/") || op.Value == nil {
			continue
		}
		c, err := node.DecodeContainer(op.Value)
		s.tap.mu.Lock()
		if err != nil {
			s.tap.errs = append(s.tap.errs, fmt.Sprintf("%s: %v", op.Key, err))
		} else {
			s.tap.containers = append(s.tap.containers, c)
		}
		s.tap.mu.Unlock()
	}
	return s.Store.Apply(batch...)
}

func init() {
	stable.RegisterEngine("mem-queue-tap", func(spec stable.Spec) (stable.Store, error) {
		tap, _ := queued.LoadOrStore(filepath.Dir(spec.Dir), &queueTap{})
		return &queueTapStore{Store: stable.NewMemStore(spec.Counters), tap: tap.(*queueTap)}, nil
	})
}

// spState is what a rollback to a savepoint must bring back.
type spState struct {
	cursor  itinerary.Cursor
	stepSeq int
	itin    []byte
	sro     map[string][]byte
}

func stateOf(t *testing.T, a *agent.Agent) spState {
	t.Helper()
	itin, err := a.Itin.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return spState{cursor: a.Cursor, stepSeq: a.StepSeq, itin: itin, sro: a.SRO.Snapshot()}
}

func (s spState) equal(o spState) bool {
	return reflect.DeepEqual(s.cursor, o.cursor) && s.stepSeq == o.stepSeq && bytes.Equal(s.itin, o.itin) && reflect.DeepEqual(s.sro, o.sro)
}

// shopsOrder names the entries of the "shops" sub of an encoded
// itinerary, in order.
func shopsOrder(t *testing.T, itin []byte) []string {
	t.Helper()
	r := wire.NewReader(itin)
	it := itinerary.ReadItinerary(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range it.Subs[0].Entries[1].(*itinerary.Sub).Entries {
		switch v := e.(type) {
		case itinerary.Step:
			names = append(names, v.Method)
		case *itinerary.Sub:
			names = append(names, v.ID)
		}
	}
	return names
}

// TestRollbackRestoresInlineItinerary: an agent enters an AnyOrder sub
// nested in its top-level sub, whose entry fixes a new order of the
// nested sub's entries, so the top-level savepoint's itinerary is no
// longer the container's and travels inline. The agent then rolls back
// to the nested sub's special savepoint, to the nested sub's savepoint,
// and to the top-level savepoint, once each, and completes. Under both
// log modes, every rollback restores the cursor, step counter, itinerary
// (order included) and SRO exactly as the savepoint captured them.
func TestRollbackRestoresInlineItinerary(t *testing.T) {
	for _, mode := range []core.LogMode{core.StateLogging, core.TransitionLogging} {
		t.Run(fmt.Sprintf("mode-%d", mode), func(t *testing.T) {
			dir := t.TempDir()
			cl := cluster.New(cluster.Options{
				LogMode:    mode,
				RetryDelay: 2 * time.Millisecond,
				AckTimeout: time.Second,
				Store:      stable.Spec{Engine: "mem-queue-tap", Dir: dir},
			})
			for _, n := range []string{"n1", "n2"} {
				if err := cl.AddNode(n); err != nil {
					t.Fatal(err)
				}
			}
			reg := cl.Registry()
			mark := func(name string) agent.StepFunc {
				return func(ctx agent.StepContext) error {
					if err := ctx.SRO().Set("at/"+name, ctx.StepSeq()); err != nil {
						return err
					}
					ctx.LogComp(core.OpAgent, "undo", core.NewParams())
					return nil
				}
			}
			mustRegStep(t, reg, "a", mark("a"))
			mustRegStep(t, reg, "b", mark("b"))
			mustRegStep(t, reg, "far", mark("far"))
			// decide rolls back by how many steps were compensated so
			// far (the WRO survives a rollback, §4.1): to inner's
			// special savepoint, to shops', to trip's, then proceeds.
			targets := map[int]string{0: "inner", 1: "shops", 2: "trip"}
			mustRegStep(t, reg, "decide", func(ctx agent.StepContext) error {
				var undone int
				if _, err := ctx.WRO().Get("undone", &undone); err != nil {
					return err
				}
				if sp, ok := targets[undone]; ok {
					return ctx.Rollback(sp)
				}
				return nil
			})
			mustRegComp(t, reg, "undo", func(ctx agent.CompContext) error {
				wro, err := ctx.WRO()
				if err != nil {
					return err
				}
				var undone int
				if _, err := wro.Get("undone", &undone); err != nil {
					return err
				}
				return wro.Set("undone", undone+1)
			})
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)

			it, err := itinerary.New(&itinerary.Sub{ID: "trip", Entries: []itinerary.Entry{
				itinerary.Step{Method: "a", Loc: "n1"},
				&itinerary.Sub{ID: "shops", AnyOrder: true, Entries: []itinerary.Entry{
					itinerary.Step{Method: "far", Loc: "n2"},
					&itinerary.Sub{ID: "inner", Entries: []itinerary.Entry{
						itinerary.Step{Method: "b", Loc: "n1"},
						itinerary.Step{Method: "decide", Loc: "n1"},
					}},
				}},
			}})
			if err != nil {
				t.Fatal(err)
			}
			a, entered, err := agent.New("inline", "", it)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Run(a, entered, "n1", testTimeout)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed {
				t.Fatalf("agent failed: %s", res.Reason)
			}
			v, _ := queued.Load(dir)
			tap := v.(*queueTap)
			tap.mu.Lock()
			defer tap.mu.Unlock()
			for _, e := range tap.errs {
				t.Errorf("queued container does not decode: %s", e)
			}
			checkRestores(t, tap.containers)
		})
	}
}

// checkRestores walks the queued containers of one agent in order. A
// savepoint is captured from the step container that first carries it:
// that container's agent is the state the savepoint records, and its
// recorded state must say so. The step container that ends a rollback to
// it must carry the captured state again.
func checkRestores(t *testing.T, containers []*node.Container) {
	t.Helper()
	captured := map[string]spState{}
	restored := map[string]int{}
	inline := 0
	rollingTo := ""
	for i, c := range containers {
		a := c.Agent
		if c.Mode == node.ModeRollback {
			rollingTo = c.SpID
			continue
		}
		now := stateOf(t, a)
		if rollingTo != "" {
			if want, ok := captured[rollingTo]; !ok || !now.equal(want) {
				t.Errorf("container %d after the rollback to %q: %+v\nwant %+v", i, rollingTo, now, want)
			}
			restored[rollingTo]++
			rollingTo = ""
		}
		seen := map[string]bool{}
		for _, e := range a.Log.Entries {
			sp, ok := e.(*core.SavepointEntry)
			if !ok {
				continue
			}
			seen[sp.ID] = true
			if _, ok := captured[sp.ID]; ok {
				continue
			}
			captured[sp.ID] = now
			want := []string{"inner", "far"} // the order entering shops from n1 fixed
			if sp.ID == "trip" {
				want = []string{"far", "inner"} // the authored order
			}
			if got := shopsOrder(t, now.itin); !reflect.DeepEqual(got, want) {
				t.Errorf("savepoint %q captured shops in order %v, want %v", sp.ID, got, want)
			}
			sys, sro, err := a.Log.SavepointState(sp.ID)
			if err != nil {
				t.Fatal(err)
			}
			rec := spState{cursor: sys.Cursor, stepSeq: sys.StepSeq, itin: sys.Itin, sro: sro}
			if !rec.equal(now) {
				t.Errorf("savepoint %q records %+v, the agent that wrote it was %+v", sp.ID, rec, now)
			}
		}
		for id := range captured {
			if !seen[id] {
				delete(captured, id) // popped by a rollback past it
			}
		}
		if trip, ok := captured["trip"]; ok && !bytes.Equal(trip.itin, now.itin) {
			inline++
		}
	}
	if !reflect.DeepEqual(restored, map[string]int{"inner": 1, "shops": 1, "trip": 1}) {
		t.Errorf("rollbacks completed: %v, want one each to inner, shops and trip", restored)
	}
	if inline == 0 {
		t.Error("no container carried the trip savepoint's itinerary inline")
	}
}
