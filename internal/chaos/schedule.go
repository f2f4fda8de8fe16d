// Package chaos is a deterministic, seed-driven fault-injection harness
// for the agent system. A seed expands into a Schedule — a timed sequence
// of node crashes/recoveries, link partitions/heals, probabilistic message
// faults (drop, duplicate, reorder) and latency spikes — which Run
// executes against a multi-node cluster while a rollback-heavy workload
// is in flight, then checks the §4.3 global invariants: exactly-once step
// execution, per-agent FIFO order, compensation of every rolled-back
// effect, empty input queues, and (for durable engines) stores that
// reopen cleanly through their real recovery path.
//
// The seed-replay contract: the same seed with the same Options always
// expands to the identical Schedule, and the network's per-message fault
// RNG is seeded from it too, so replays face the same fault windows with
// statistically identical fault intensity. Exact per-message drop/dup
// decisions still depend on goroutine timing (which message reaches the
// RNG first), so a racy violation may take a few replays to re-fire —
// the schedule it fires under is identical every time:
//
//	go test ./internal/chaos -run 'TestChaos$' -chaos-seed=<N> \
//	    -chaos-store=<engine> -chaos-workers=<W>
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/network"
)

// Op is one kind of schedule event.
type Op int

const (
	// OpCrash stops a node abruptly (volatile state lost; with a durable
	// engine the store handle is closed too, so OpRecover reopens it
	// through real crash recovery).
	OpCrash Op = iota
	// OpRecover boots a fresh runtime on the crashed node's store.
	OpRecover
	// OpPartition cuts the link between two nodes.
	OpPartition
	// OpHeal restores a cut link.
	OpHeal
	// OpFaults installs probabilistic message faults on a link.
	OpFaults
	// OpClearFaults removes the faults installed on a link.
	OpClearFaults
	// OpJoin boots an additional node mid-run (membership churn): it
	// announces itself, and every node's rebalancer migrates its ring
	// share of live agents over — while the surrounding crash/partition
	// windows keep firing.
	OpJoin
	// OpLeave drains a previously joined node back out: Left status
	// floods, its agents migrate to the new owners, then it detaches.
	OpLeave
)

func (o Op) String() string {
	switch o {
	case OpCrash:
		return "crash"
	case OpRecover:
		return "recover"
	case OpPartition:
		return "partition"
	case OpHeal:
		return "heal"
	case OpFaults:
		return "faults"
	case OpClearFaults:
		return "clear-faults"
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Event is one timed fault action. At is the offset from workload start.
type Event struct {
	At     time.Duration
	Op     Op
	Node   string             // OpCrash / OpRecover
	A, B   string             // link events
	Faults network.LinkFaults // OpFaults
}

func (e Event) String() string {
	switch e.Op {
	case OpCrash, OpRecover, OpJoin, OpLeave:
		return fmt.Sprintf("t=%-8s %-12s %s", e.At, e.Op, e.Node)
	case OpFaults:
		return fmt.Sprintf("t=%-8s %-12s %s<->%s drop=%.2f dup=%.2f reorder=%.2f delay=%s spike=%s",
			e.At, e.Op, e.A, e.B, e.Faults.Drop, e.Faults.Duplicate, e.Faults.Reorder,
			e.Faults.Delay, e.Faults.Extra)
	default:
		return fmt.Sprintf("t=%-8s %-12s %s<->%s", e.At, e.Op, e.A, e.B)
	}
}

// Schedule is the fully expanded fault plan of one seed.
type Schedule struct {
	Seed   int64
	Nodes  []string
	Events []Event // sorted by At
}

// Counts reports how many crash, partition and message-fault windows the
// schedule contains.
func (s *Schedule) Counts() (crashes, partitions, faultWindows int) {
	for _, e := range s.Events {
		switch e.Op {
		case OpCrash:
			crashes++
		case OpPartition:
			partitions++
		case OpFaults:
			faultWindows++
		}
	}
	return
}

func (s *Schedule) String() string {
	var b strings.Builder
	crashes, parts, faults := s.Counts()
	joins := 0
	for _, e := range s.Events {
		if e.Op == OpJoin {
			joins++
		}
	}
	fmt.Fprintf(&b, "chaos schedule seed=%d nodes=%v (%d crashes, %d partitions, %d fault windows, %d joins)\n",
		s.Seed, s.Nodes, crashes, parts, faults, joins)
	for _, e := range s.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// GenConfig bounds the schedule generator. The zero value of every field
// picks a sensible default.
type GenConfig struct {
	Nodes   []string      // cluster node names (required)
	Horizon time.Duration // window in which fault windows open (default 1.2s)
	Faults  int           // number of fault windows to draw (default 6)

	MinHold time.Duration // minimum fault-window length (default 30ms)
	MaxHold time.Duration // maximum fault-window length (default 250ms)

	MaxDrop      float64       // drop-probability cap (default 0.25)
	MaxDuplicate float64       // duplicate-probability cap (default 0.25)
	MaxReorder   float64       // reorder-probability cap (default 0.25)
	MaxSpike     time.Duration // latency-spike cap (default 2ms)

	// Churn is the number of membership-churn draws: each boots
	// JoinNames[i] somewhere in the first half of the horizon (so its
	// rebalancing overlaps the crash/partition windows), and about half
	// the joins are followed by a drain-out leave of the same node later
	// on. Only previously joined nodes ever leave — the original Nodes
	// stay, because the workload's completion notifications and the
	// crash/partition draws target them. Zero disables churn.
	Churn     int
	JoinNames []string // names for joined nodes; must cover Churn draws
}

func (g *GenConfig) fillDefaults() {
	if g.Horizon <= 0 {
		g.Horizon = 1200 * time.Millisecond
	}
	if g.Faults <= 0 {
		g.Faults = 6
	}
	if g.MinHold <= 0 {
		g.MinHold = 30 * time.Millisecond
	}
	if g.MaxHold <= g.MinHold {
		g.MaxHold = g.MinHold + 220*time.Millisecond
	}
	if g.MaxDrop <= 0 {
		g.MaxDrop = 0.25
	}
	if g.MaxDuplicate <= 0 {
		g.MaxDuplicate = 0.25
	}
	if g.MaxReorder <= 0 {
		g.MaxReorder = 0.25
	}
	if g.MaxSpike <= 0 {
		g.MaxSpike = 2 * time.Millisecond
	}
}

// interval is a closed fault window used to keep per-target windows
// disjoint, so every opening event has exactly one closing event and no
// event cancels another window early.
type interval struct{ from, to time.Duration }

func overlaps(ivs []interval, iv interval) bool {
	for _, o := range ivs {
		if iv.from <= o.to && o.from <= iv.to {
			return true
		}
	}
	return false
}

// Generate deterministically expands a seed into a schedule: the same
// seed and config always yield the same event sequence.
func Generate(seed int64, cfg GenConfig) Schedule {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(seed))
	nodes := append([]string(nil), cfg.Nodes...)
	sort.Strings(nodes)
	if len(nodes) < 2 {
		// Every fault kind needs a pair (or a survivor); nothing to do.
		return Schedule{Seed: seed, Nodes: nodes}
	}

	crashed := make(map[string][]interval)
	linked := make(map[string][]interval) // keyed "a|b", covers partition + fault windows

	var events []Event
	pickWindow := func() (time.Duration, time.Duration) {
		at := time.Duration(rng.Int63n(int64(cfg.Horizon)))
		hold := cfg.MinHold + time.Duration(rng.Int63n(int64(cfg.MaxHold-cfg.MinHold)))
		return at, hold
	}
	pickPair := func() (string, string) {
		i := rng.Intn(len(nodes))
		j := rng.Intn(len(nodes) - 1)
		if j >= i {
			j++
		}
		if nodes[i] > nodes[j] {
			i, j = j, i
		}
		return nodes[i], nodes[j]
	}

	for f := 0; f < cfg.Faults; f++ {
		kind := rng.Intn(10)
		// A few attempts to place the window without overlapping an
		// existing window on the same target; crowded schedules just
		// skip the draw (the schedule stays valid, only lighter).
		for attempt := 0; attempt < 4; attempt++ {
			at, hold := pickWindow()
			iv := interval{at, at + hold}
			switch {
			case kind < 3: // crash + recover
				n := nodes[rng.Intn(len(nodes))]
				if overlaps(crashed[n], iv) {
					continue
				}
				crashed[n] = append(crashed[n], iv)
				events = append(events,
					Event{At: at, Op: OpCrash, Node: n},
					Event{At: at + hold, Op: OpRecover, Node: n})
			case kind < 5: // partition + heal
				a, b := pickPair()
				key := a + "|" + b
				if overlaps(linked[key], iv) {
					continue
				}
				linked[key] = append(linked[key], iv)
				events = append(events,
					Event{At: at, Op: OpPartition, A: a, B: b},
					Event{At: at + hold, Op: OpHeal, A: a, B: b})
			default: // message faults + clear
				a, b := pickPair()
				key := a + "|" + b
				if overlaps(linked[key], iv) {
					continue
				}
				linked[key] = append(linked[key], iv)
				var lf network.LinkFaults
				// Draw one to three fault dimensions for the window.
				for _, dim := range rng.Perm(4)[:1+rng.Intn(3)] {
					switch dim {
					case 0:
						lf.Drop = cfg.MaxDrop * rng.Float64()
					case 1:
						lf.Duplicate = cfg.MaxDuplicate * rng.Float64()
					case 2:
						lf.Reorder = cfg.MaxReorder * rng.Float64()
						lf.Delay = time.Millisecond + time.Duration(rng.Int63n(int64(4*time.Millisecond)))
					case 3:
						lf.Extra = time.Duration(rng.Int63n(int64(cfg.MaxSpike)))
					}
				}
				if !lf.Active() {
					lf.Drop = cfg.MaxDrop * rng.Float64()
				}
				events = append(events,
					Event{At: at, Op: OpFaults, A: a, B: b, Faults: lf},
					Event{At: at + hold, Op: OpClearFaults, A: a, B: b})
			}
			break
		}
	}
	for i := 0; i < cfg.Churn && i < len(cfg.JoinNames); i++ {
		name := cfg.JoinNames[i]
		at := time.Duration(rng.Int63n(int64(cfg.Horizon/2) + 1))
		events = append(events, Event{At: at, Op: OpJoin, Node: name})
		if rng.Intn(2) == 0 {
			// Drain back out later in the horizon, leaving room for the
			// join's rebalancing to actually move agents first.
			lo := at + cfg.Horizon/4
			leaveAt := lo + time.Duration(rng.Int63n(int64(cfg.Horizon-lo)+1))
			events = append(events, Event{At: leaveAt, Op: OpLeave, Node: name})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return Schedule{Seed: seed, Nodes: nodes, Events: events}
}
