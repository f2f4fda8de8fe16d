// Package agent implements the mobile-agent model of §2 and §4.1: an
// autonomous object whose private data space is split into strongly
// reversible objects (restored from before-images in the rollback log) and
// weakly reversible objects (compensated by application-provided
// operations), executing an itinerary of steps with code resolved from a
// per-node registry.
//
// Code mobility substitution: Mole shipped Java classes with the agent; in
// Go, step and compensation functions are registered by name on every node
// and only the agent's *data* migrates (codec.go). See DESIGN.md.
package agent

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/wire"
)

// ErrFrozen is returned when strongly reversible objects are accessed
// during compensation — forbidden because a compensating operation would
// read the "old" state established after the savepoint (§4.3, Figure 3).
var ErrFrozen = errors.New("agent: strongly reversible objects are not accessible during compensation")

// Space is one half of the agent's private data space. Values are stored
// encoded (wire.EncodeValue: tagged scalars, []int and binary forms, gob
// for other types), so a Space snapshot is a deep copy by construction and the
// container codec carries them as opaque bytes.
type Space struct {
	Data map[string][]byte

	frozen bool // runtime-only: set while compensating (SRO space)
}

// NewSpace returns an empty data space.
func NewSpace() *Space { return &Space{Data: make(map[string][]byte)} }

// Freeze toggles access blocking; the node runtime freezes the SRO space
// for the duration of compensation transactions.
func (s *Space) Freeze(frozen bool) { s.frozen = frozen }

func (s *Space) check() error {
	if s.frozen {
		return ErrFrozen
	}
	if s.Data == nil {
		s.Data = make(map[string][]byte)
	}
	return nil
}

// Set stores v under key, encoded by the shared value codec.
func (s *Space) Set(key string, v any) error {
	if err := s.check(); err != nil {
		return err
	}
	data, err := wire.EncodeValue(v)
	if err != nil {
		return fmt.Errorf("agent: set %q: %w", key, err)
	}
	s.Data[key] = data
	return nil
}

// Get decodes the value under key into out (a non-nil pointer): a type
// of the stored value's kind, named or not (wire.DecodeValue). It
// returns false if the key does not exist.
func (s *Space) Get(key string, out any) (bool, error) {
	if err := s.check(); err != nil {
		return false, err
	}
	raw, ok := s.Data[key]
	if !ok {
		return false, nil
	}
	if err := wire.DecodeValue(raw, out); err != nil {
		return false, fmt.Errorf("agent: get %q: %w", key, err)
	}
	return true, nil
}

// MustGet decodes the value under key into out, failing if absent.
func (s *Space) MustGet(key string, out any) error {
	ok, err := s.Get(key, out)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("agent: missing key %q", key)
	}
	return nil
}

// Delete removes key.
func (s *Space) Delete(key string) error {
	if err := s.check(); err != nil {
		return err
	}
	delete(s.Data, key)
	return nil
}

// Has reports whether key exists.
func (s *Space) Has(key string) (bool, error) {
	if err := s.check(); err != nil {
		return false, err
	}
	_, ok := s.Data[key]
	return ok, nil
}

// Keys returns all keys in sorted order.
func (s *Space) Keys() ([]string, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(s.Data))
	for k := range s.Data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// Snapshot returns a deep copy of the raw contents — the before-image
// written into savepoint entries. Snapshot ignores freezing (the system
// takes images, the application does not).
func (s *Space) Snapshot() map[string][]byte {
	out := make(map[string][]byte, len(s.Data))
	for k, v := range s.Data {
		c := make([]byte, len(v))
		copy(c, v)
		out[k] = c
	}
	return out
}

// Restore replaces the contents with the given image (deep copy).
func (s *Space) Restore(image map[string][]byte) {
	s.Data = make(map[string][]byte, len(image))
	for k, v := range image {
		c := make([]byte, len(v))
		copy(c, v)
		s.Data[k] = c
	}
}
