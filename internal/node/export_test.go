package node

import (
	"testing"

	"repro/internal/network"
)

// The durable points of a distributed transaction, for crash tests
// outside the package.
const (
	PointCompHeld         = pointCompHeld
	PointPartyPrepared    = pointPartyPrepared
	PointSourcePrepared   = pointSourcePrepared
	PointSourceHeld       = pointSourceHeld
	PointDeciderCommitted = pointDeciderCommitted
	PointDeciderRecorded  = pointDeciderRecorded
	PointSourceDecided    = pointSourceDecided
)

// SetCrashAt installs the crash hook (crashAt) for the test.
func SetCrashAt(t testing.TB, f func(node, point string) bool) {
	crashAt = f
	t.Cleanup(func() { crashAt = nil })
}

// Deliver hands msg to the node's dispatcher as if it had arrived.
func (n *Node) Deliver(msg network.Message) { n.handle(msg) }
