package experiments

import (
	"fmt"
	"time"

	"repro/internal/perfmodel"
)

// The T-perf scenario: a LAN link, and one step whose remote compensation
// is tperfOps operations carried in a tperfEntryBytes entry list.
var tperfLink = perfmodel.Link{Latency: 200 * time.Microsecond, ThroughputBps: 10e6}

const (
	tperfEntryBytes = 1024
	tperfOps        = 4
)

// TPerf evaluates the §4.4.1 further-optimization model (after Straßer &
// Schwehm [16]): for growing agent sizes, which strategy — migrating the
// agent, shipping the resource compensation entries (Figure 5b), or plain
// RPC per operation — completes a step's remote compensation fastest. The
// Figure-5 implementation corresponds to the ship-entries column; the
// model explains *why* it wins once agents carry state.
func TPerf() (*Table, error) {
	link := tperfLink
	t := &Table{
		Title: "T-perf (§4.4.1, model of [16]): remote-compensation strategy vs agent size",
		Note: fmt.Sprintf("LAN model: %v one-way latency, %.0f MB/s; %d ops, 1 KiB entry list; crossover at %d B agent",
			link.Latency, link.ThroughputBps/1e6, tperfOps, perfmodel.CrossoverAgentBytes(tperfEntryBytes, link)),
		Header: []string{"agent KB", "migrate ms", "ship ms", "rpc ms", "model picks"},
	}
	for _, agentKB := range []int{1, 4, 16, 64, 256, 1024} {
		st := perfmodel.Step{
			AgentBytes: agentKB << 10,
			EntryBytes: tperfEntryBytes,
			Ops:        tperfOps,
		}
		mig := perfmodel.Cost(perfmodel.MigrateAgent, st, link)
		ship := perfmodel.Cost(perfmodel.ShipEntries, st, link)
		rpc := perfmodel.Cost(perfmodel.RPC, st, link)
		pick, _ := perfmodel.Pick(st, link)
		t.AddRow(agentKB,
			float64(mig.Microseconds())/1000,
			float64(ship.Microseconds())/1000,
			float64(rpc.Microseconds())/1000,
			pick.String())
	}
	return t, nil
}
