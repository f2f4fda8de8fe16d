package node

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// tourForwardHops returns the containers of testdata/tour-forward-hops.bin:
// 40 step containers (152–570 B) sampled from the queue writes of a
// `go run ./bench --workload tour-forward --seed 1` run, each written as
// wire.AppendBytes.
func tourForwardHops(t testing.TB) [][]byte {
	r := wire.NewReader(fixture(t, "tour-forward-hops.bin"))
	var hops [][]byte
	for len(r.Mark()) > 0 && r.Err() == nil {
		hops = append(hops, r.Bytes())
	}
	if err := r.Done(); err != nil || len(hops) != 40 {
		t.Fatalf("tour-forward-hops.bin: %d containers, %v", len(hops), err)
	}
	return hops
}

// forwardStep is one step's log entries as the runtime appends them: a
// resource and an agent compensation, as bench's tour logs on an odd step.
var forwardStep = []core.Entry{
	&core.BeginStepEntry{Node: "n2", Seq: 3},
	&core.OpEntry{Kind: core.OpResource, Op: "bench.comp.resource", Params: core.NewParams().Set("bank", "bank3").Set("id", "o0-000001")},
	&core.OpEntry{Kind: core.OpAgent, Op: "bench.comp.agent", Params: core.NewParams().Set("id", "o0-000001")},
	&core.EndStepEntry{Node: "n2", Seq: 3},
}

// forwardHop is what a node does to a container on a forward step, short
// of running the step: decode it at the claim, append the step's entries
// and encode it for the next node.
func forwardHop(data []byte) ([]byte, error) {
	c, err := DecodeContainer(data)
	if err != nil {
		return nil, err
	}
	for _, e := range forwardStep {
		c.Agent.Log.Append(e)
	}
	c.Agent.StepSeq++
	return EncodeContainer(c)
}

// BenchmarkForwardHop times forwardHop over the tour-forward containers.
func BenchmarkForwardHop(b *testing.B) {
	hops := tourForwardHops(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := forwardHop(hops[i%len(hops)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// TestForwardHopAllocs: a forward hop over the tour-forward containers
// gives the bytes of a log decoded whole and written anew, and allocates
// at most 37 objects a hop, half of the 75 that decoding every log entry
// into objects and writing them all anew cost at commit 3c94dc9. Decoding
// the itinerary and the data spaces is most of what is left.
func TestForwardHopAllocs(t *testing.T) {
	hops := tourForwardHops(t)
	for _, data := range hops {
		out, err := forwardHop(data)
		if err != nil {
			t.Fatal(err)
		}
		c, err := DecodeContainer(data)
		if err != nil {
			t.Fatal(err)
		}
		c.Agent.Log = logOf(append(entriesOf(c.Agent.Log), forwardStep...))
		c.Agent.StepSeq++
		if want, err := EncodeContainer(c); err != nil || !bytes.Equal(out, want) {
			t.Fatalf("hop of a %d B container: %x, want %x (%v)", len(data), out, want, err)
		}
	}
	if raceDetectorEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := forwardHop(hops[i%len(hops)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 37 {
		t.Errorf("a forward hop allocates %.0f objects, want <= 37", allocs)
	}
}
