package main

import (
	"fmt"
	"math/rand"
	"time"
)

// workload is one set of inputs. All of them are closed loops: an owner
// launches its next agent only after the previous one returned. Durable
// engines run without fsync on every side of every comparison: the data
// has to live inside the checkout, and fsync to its disk swings
// throughput fourfold between identical runs (README.md, "Flush policy").
type workload struct {
	name   string
	owners int
	// In-process tours (tcp false): a 4-node cluster on network.Sim.
	latency  time.Duration // one-way Sim latency
	engine   string        // stable engine: "mem" or "wal"
	rollback bool          // ~1 KiB SRO payload per step, roll the tour back once
	// tcp: three agentnode processes over loopback TCP running the demo
	// shopping trip.
	tcp bool
}

var workloads = []workload{
	{name: "tour-forward", owners: 4, engine: "mem"},
	{name: "tour-rollback", owners: 4, engine: "mem", rollback: true},
	{name: "tour-wan", owners: 2, latency: time.Millisecond, engine: "wal"},
	{name: "trip-tcp", owners: 2, tcp: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Shape of the in-process tours.
const (
	tourNodes = 4
	tourBanks = 8
	tourSteps = 8 // bench.work steps; a final bench.decide follows
	sinkAcct  = "sink"
)

func tourNode(i int) string { return fmt.Sprintf("n%d", i%tourNodes) }
func tourBank(i int) string { return fmt.Sprintf("bank%d", i) }

// tourSpec is one generated agent: everything the seed decides.
type tourSpec struct {
	id    string
	start int   // start node
	bank  int   // bank every step deposits into
	mixed int   // bit s set: step s logs one mixed compensation entry
	sizes []int // SRO payload bytes per step (rollback workload only)
}

// ownerRand returns the random stream of one owner. Owners run
// concurrently, so each has its own stream: the same seed gives every
// owner the same sequence of agents however the owners interleave.
func ownerRand(seed int64, owner int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(owner)))
}

func nextTourSpec(w workload, owner, n int, rng *rand.Rand) tourSpec {
	s := tourSpec{
		id:    fmt.Sprintf("o%d-%06d", owner, n),
		start: rng.Intn(tourNodes),
		bank:  rng.Intn(tourBanks),
		mixed: rng.Intn(1 << tourSteps),
	}
	if w.rollback {
		s.sizes = make([]int, tourSteps)
		for i := range s.sizes {
			s.sizes[i] = 512 + rng.Intn(1025)
		}
	}
	return s
}
