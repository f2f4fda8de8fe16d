// Package perfmodel implements the further optimization sketched at the
// end of §4.4.1: "if the access to resources within the mixed compensation
// entries and the resource compensation entries may be performed using
// RPC … a performance model similar to that introduced in [16] can be used
// to determine if the agent or the resource compensation objects should be
// transferred to the node where the resources reside or if RPC should be
// used to access the resources."
//
// Following Straßer & Schwehm's PDPTA'97 model, the cost of executing a
// remote interaction is expressed in transmitted bytes and round trips
// over a link with latency L (one way) and throughput B:
//
//	time(bytes, rtts) = 2·L·rtts + bytes/B
//
// Three strategies compensate one step remotely:
//
//	MigrateAgent   move the whole agent container to the resource node
//	               and back (2 transfers, each one round trip of the
//	               hand-off protocol plus the container bytes).
//	ShipEntries    send only the resource compensation entries and
//	               commit the branch (Figure 5b: exec + ack, commit).
//	RPC            call each compensating operation individually
//	               (one round trip per operation plus its parameters).
//
// Pick returns the cheapest strategy. The experiment table T-perf prints
// the model's Cost of each strategy and its Pick over a range of agent
// sizes on one LAN link, with the agent size where shipping entries starts
// to beat migrating the agent (CrossoverAgentBytes). It is the model's
// arithmetic only: nothing here is checked against a measured run.
package perfmodel

import (
	"fmt"
	"time"
)

// Strategy is a remote-compensation execution strategy.
type Strategy int

// Strategies considered by the model.
const (
	// MigrateAgent moves the agent to the resource node (the basic
	// algorithm's only option, and required for mixed entries).
	MigrateAgent Strategy = iota + 1
	// ShipEntries sends the resource-compensation-entry list (Figure 5b).
	ShipEntries
	// RPC invokes each compensating operation in its own round trip.
	RPC
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case MigrateAgent:
		return "migrate-agent"
	case ShipEntries:
		return "ship-entries"
	case RPC:
		return "rpc"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Link models the network between the agent node and the resource node.
type Link struct {
	// Latency is the one-way message latency.
	Latency time.Duration
	// ThroughputBps is the usable throughput in bytes per second.
	ThroughputBps float64
}

// transfer returns the time to move the given payload with the given
// number of request/response round trips.
func (l Link) transfer(bytes int, roundTrips int) time.Duration {
	if l.ThroughputBps <= 0 {
		return time.Duration(roundTrips) * 2 * l.Latency
	}
	wire := time.Duration(float64(bytes) / l.ThroughputBps * float64(time.Second))
	return time.Duration(roundTrips)*2*l.Latency + wire
}

// Step describes one step's compensation workload for the decision.
type Step struct {
	// AgentBytes is the encoded agent container size (incl. log).
	AgentBytes int
	// EntryBytes is the encoded size of the step's resource
	// compensation entries.
	EntryBytes int
	// Ops is the number of compensating operations in the step.
	Ops int
	// HasMixed marks a step with a mixed compensation entry: the agent
	// must be present, only MigrateAgent is legal (§4.4.1).
	HasMixed bool
}

// Cost returns the modelled completion time of strategy s for the step.
func Cost(s Strategy, st Step, link Link) time.Duration {
	switch s {
	case MigrateAgent:
		// Hand-off there (prepare/ack + commit ≈ 2 round trips carrying
		// the container) and back.
		oneWay := link.transfer(st.AgentBytes, 2)
		return 2 * oneWay
	case ShipEntries:
		// exec+ack carrying the entry list, then commit+ack (Figure 5b).
		return link.transfer(st.EntryBytes, 2)
	case RPC:
		// One round trip per operation, parameters spread across them,
		// plus the branch commit.
		perOp := st.EntryBytes
		if st.Ops > 0 {
			perOp = st.EntryBytes / st.Ops
		}
		var total time.Duration
		for i := 0; i < st.Ops; i++ {
			total += link.transfer(perOp, 1)
		}
		return total + link.transfer(0, 1)
	default:
		return 0
	}
}

// Pick returns the cheapest legal strategy for the step and its modelled
// cost. Mixed steps always migrate (the paper's rule).
func Pick(st Step, link Link) (Strategy, time.Duration) {
	if st.HasMixed {
		return MigrateAgent, Cost(MigrateAgent, st, link)
	}
	best, bestCost := MigrateAgent, Cost(MigrateAgent, st, link)
	for _, s := range []Strategy{ShipEntries, RPC} {
		if c := Cost(s, st, link); c < bestCost {
			best, bestCost = s, c
		}
	}
	return best, bestCost
}

// CrossoverAgentBytes returns the agent size above which ShipEntries beats
// MigrateAgent for the given entry size (the break-even the paper's
// optimization banks on). It solves Cost(Migrate)=Cost(Ship) for
// AgentBytes; below the returned size migrating is no worse.
func CrossoverAgentBytes(entryBytes int, link Link) int {
	if link.ThroughputBps <= 0 {
		return 0 // latency-only model: shipping always wins (2 vs 8 L)
	}
	// 2*(4L + A/B) = 4L + E/B  =>  A = (E - 4*L*B)/2
	lb := link.Latency.Seconds() * link.ThroughputBps
	a := (float64(entryBytes) - 4*lb) / 2
	if a < 0 {
		return 0
	}
	return int(a)
}
