package cluster_test

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/stable"
)

// ownCounters maps a node name to the counters of its store under the
// "mem-own-counters" engine: a MemStore per node that counts its writes
// apart from the cluster's shared counters.
var ownCounters sync.Map

func init() {
	stable.RegisterEngine("mem-own-counters", func(spec stable.Spec) (stable.Store, error) {
		c := &metrics.Counters{}
		ownCounters.Store(filepath.Base(spec.Dir), c)
		return stable.NewMemStore(c), nil
	})
}

// TestTransferWritesContainerOnce: moving an agent to the next node under
// the step transaction's 2PC writes its container to the receiving node's
// stable storage once — at the prepare, where the entry will live — and
// the commit adds nothing to it. The step on the receiving node holds
// until the store has been read, so what is counted is the hand-off alone.
func TestTransferWritesContainerOnce(t *testing.T) {
	cl := cluster.New(cluster.Options{
		RetryDelay: 2 * time.Millisecond,
		AckTimeout: time.Second,
		Store:      stable.Spec{Engine: "mem-own-counters", Dir: t.TempDir()},
	})
	for _, n := range []string{"n1", "n2"} {
		if err := cl.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	arrived, release := make(chan struct{}), make(chan struct{})
	mustRegStep(t, cl.Registry(), "load", func(ctx agent.StepContext) error {
		return ctx.SRO().Set("payload", make([]byte, 4<<10))
	})
	mustRegStep(t, cl.Registry(), "hold", func(agent.StepContext) error {
		close(arrived)
		<-release
		return nil
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c, _ := ownCounters.Load("n2")
	written := func() int64 { return c.(*metrics.Counters).Snapshot().StableBytes }
	before := written()

	a, entered, err := agent.New("mover", "", twoStepItinerary(t, "load", "hold"))
	if err != nil {
		t.Fatal(err)
	}
	done, err := cl.Launch(a, entered, "n1")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-arrived:
	case <-time.After(testTimeout):
		t.Fatal("agent never reached n2")
	}
	n2, _ := cl.Node("n2")
	var sizes []int64
	if err := n2.Queue().Each(func(_, _ string, data []byte) error {
		sizes = append(sizes, int64(len(data)))
		return nil
	}); err != nil || len(sizes) != 1 {
		t.Fatalf("n2 queue holds %d entries, %v; want the one agent", len(sizes), err)
	}
	size := sizes[0]
	if got := written() - before; size < 4<<10 || got < size || got > size+128 {
		t.Errorf("the hand-off of a %d-byte container wrote %d bytes on n2, want it once (and at most 128 more)", size, got)
	}
	close(release)
	select {
	case res := <-done:
		if res.Failed {
			t.Fatalf("agent failed: %s", res.Reason)
		}
	case <-time.After(testTimeout):
		t.Fatal("agent never completed")
	}
}
