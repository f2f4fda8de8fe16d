package node

import (
	"testing"

	"repro/internal/network"
	"repro/internal/protocol"
)

// TestAllKindsHaveFrameCodes pins every message kind the node or the
// protocol layer can put on the wire to a static frame-table code, so a
// newly added kind cannot silently fall back to the inline-string
// encoding (which costs len(kind) extra bytes per frame).
func TestAllKindsHaveFrameCodes(t *testing.T) {
	kinds := []string{
		protocol.KindEnqueuePrepare,
		protocol.KindOutcome,
		protocol.KindOutcomeAck,
		protocol.KindResolved,
		protocol.KindTxnQuery,
		protocol.KindRCEExec,
		protocol.KindRCEExecAck,
		kindAgentLaunch,
		kindAgentLaunchAck,
		kindAgentDone,
		kindAgentDoneAck,
		kindMemberAnnounce,
	}
	seen := make(map[byte]string, len(kinds))
	for _, k := range kinds {
		code, ok := network.FrameKindCode(k)
		if !ok {
			t.Errorf("kind %q has no frame-table code", k)
			continue
		}
		if code == 0 {
			t.Errorf("kind %q maps to the reserved inline-string code 0", k)
		}
		if prev, dup := seen[code]; dup {
			t.Errorf("kinds %q and %q share frame code %d", prev, k, code)
		}
		seen[code] = k
	}
}
