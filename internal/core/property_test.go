package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSROSequence drives a random sequence of SRO states: each step
// mutates/adds/deletes random keys.
func randomSROSequence(r *rand.Rand, steps int) []map[string][]byte {
	state := make(map[string][]byte)
	out := make([]map[string][]byte, 0, steps)
	for i := 0; i < steps; i++ {
		// Mutate 0..4 keys.
		for m := r.Intn(5); m > 0; m-- {
			key := fmt.Sprintf("k%d", r.Intn(8))
			switch r.Intn(3) {
			case 0:
				delete(state, key)
			default:
				val := make([]byte, 1+r.Intn(16))
				r.Read(val)
				state[key] = val
			}
		}
		snap := make(map[string][]byte, len(state))
		for k, v := range state {
			c := make([]byte, len(v))
			copy(c, v)
			snap[k] = c
		}
		out = append(out, snap)
	}
	return out
}

// TestPropertyTransitionEqualsState: for any random savepoint sequence,
// reconstructing any savepoint yields identical images under state and
// transition logging (§4.2: the two logging modes are interchangeable).
func TestPropertyTransitionEqualsState(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%6) + 2
		states := randomSROSequence(r, n)
		var stateLog, transLog Log
		for i, s := range states {
			id := fmt.Sprintf("sp%d", i)
			if err := stateLog.AppendSavepoint(id, nil, s, StateLogging, true); err != nil {
				return false
			}
			if err := transLog.AppendSavepoint(id, nil, s, TransitionLogging, true); err != nil {
				return false
			}
		}
		for i := range states {
			id := fmt.Sprintf("sp%d", i)
			a, err := stateLog.ReconstructSRO(id)
			if err != nil {
				return false
			}
			b, err := transLog.ReconstructSRO(id)
			if err != nil {
				return false
			}
			if !imagesEqual(a, b) || !imagesEqual(a, states[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 120})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyRemovalPreservesReconstruction: removing any non-referenced
// savepoint never changes the reconstruction of the remaining ones, in
// either logging mode (the §4.4.2 "non-trivial task").
func TestPropertyRemovalPreservesReconstruction(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw, victimRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%5) + 3
		victim := int(victimRaw) % n
		states := randomSROSequence(r, n)
		for _, mode := range []LogMode{StateLogging, TransitionLogging} {
			var l Log
			for i, s := range states {
				if err := l.AppendSavepoint(fmt.Sprintf("sp%d", i), nil, s, mode, true); err != nil {
					return false
				}
			}
			if err := l.RemoveSavepoint(fmt.Sprintf("sp%d", victim)); err != nil {
				return false
			}
			for i := range states {
				if i == victim {
					continue
				}
				got, err := l.ReconstructSRO(fmt.Sprintf("sp%d", i))
				if err != nil || !imagesEqual(got, states[i]) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 120})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyAppendPopRoundTrip: the log is a faithful stack — popping
// returns exactly the appended entries in reverse, and the encoded form
// round-trips at every prefix.
func TestPropertyAppendPopRoundTrip(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw % 32)
		var l Log
		var kinds []string
		for i := 0; i < n; i++ {
			switch r.Intn(3) {
			case 0:
				l.Append(&BeginStepEntry{Node: "n", Seq: i})
				kinds = append(kinds, "BOS")
			case 1:
				l.Append(&OpEntry{Kind: OpAgent, Op: "op", Params: NewParams()})
				kinds = append(kinds, "OE")
			default:
				l.Append(&EndStepEntry{Node: "n", Seq: i})
				kinds = append(kinds, "EOS")
			}
		}
		for i := n - 1; i >= 0; i-- {
			e, err := l.Pop()
			if err != nil || EntryName(e) != kinds[i] {
				return false
			}
		}
		_, err := l.Pop()
		return err != nil // empty
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}
