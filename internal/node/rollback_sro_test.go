package node

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/metrics"
	"repro/internal/stable"
)

// rollbackTap is a store that records the size of every ModeRollback
// container written to the input queue.
type rollbackTap struct {
	stable.Store
	mu    sync.Mutex
	sizes []int
}

func (s *rollbackTap) Apply(batch ...stable.Op) error {
	for _, op := range batch {
		if !strings.HasPrefix(op.Key, "q/e/") || op.Value == nil {
			continue
		}
		if c, err := DecodeContainer(op.Value); err == nil && c.Mode == ModeRollback {
			s.mu.Lock()
			s.sizes = append(s.sizes, len(op.Value))
			s.mu.Unlock()
		}
	}
	return s.Store.Apply(batch...)
}

// rollbackContainerSizes runs a four-step local tour whose steps each put
// payload bytes into the SRO, then rolls the whole tour back to its
// launch savepoint, and returns the size of every ModeRollback container
// the rollback wrote.
func rollbackContainerSizes(t *testing.T, payload int) []int {
	t.Helper()
	reg := agent.NewRegistry()
	if err := reg.RegisterStep("fill", func(ctx agent.StepContext) error {
		ctx.LogComp(core.OpAgent, "mark", core.NewParams())
		return ctx.SRO().Set(fmt.Sprintf("p%d", ctx.StepSeq()), make([]byte, payload))
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterStep("regret", func(ctx agent.StepContext) error {
		if rolled, err := ctx.WRO().Has("marked"); err != nil || rolled {
			return err
		}
		return ctx.RollbackCurrentSub()
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterComp("mark", func(ctx agent.CompContext) error {
		wro, err := ctx.WRO()
		if err != nil {
			return err
		}
		return wro.Set("marked", true)
	}); err != nil {
		t.Fatal(err)
	}
	tap := &rollbackTap{Store: stable.NewMemStore(nil)}
	n, own := soloNode(t, tap, reg, &metrics.Counters{})

	var entries []itinerary.Entry
	for i := 0; i < 4; i++ {
		entries = append(entries, itinerary.Step{Method: "fill", Loc: "p"})
	}
	it, err := itinerary.New(&itinerary.Sub{ID: "tour", Entries: append(entries, itinerary.Step{Method: "regret", Loc: "p"})})
	if err != nil {
		t.Fatal(err)
	}
	a, entered, err := agent.New("payload", "own", it)
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
	if done := awaitDone(t, own); done.Failed {
		t.Fatalf("tour failed: %s", done.Reason)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return tap.sizes
}

// TestRollbackShipsTargetSRO: a rollback carries the target savepoint's
// SRO from its first hop on. Every compensation container of an agent
// holding 8 KiB of SRO payload is within 64 B of the same rollback's
// without the payload: no compensation can read the SRO (§4.3), so the
// payload the rollback undoes is not shipped or persisted through it.
func TestRollbackShipsTargetSRO(t *testing.T) {
	const slack = 64
	heavy := rollbackContainerSizes(t, 2<<10)
	light := rollbackContainerSizes(t, 0)
	if len(heavy) != 4 || len(light) != len(heavy) {
		t.Fatalf("rollback containers: %d with payload, %d without; want 4 each (one per compensation hop)", len(heavy), len(light))
	}
	for i := range heavy {
		if d := heavy[i] - light[i]; d > slack || d < -slack {
			t.Errorf("rollback container %d: %d B with 8 KiB of SRO payload, %d B without (%+d B, slack %d)", i, heavy[i], light[i], d, slack)
		}
	}
}
