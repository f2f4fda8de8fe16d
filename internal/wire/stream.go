package wire

import (
	"encoding/gob"
	"fmt"
)

// SizingEncoder measures encoded sizes through one persistent encode
// session writing into a counting sink: nothing is materialized, and gob
// type descriptors are charged once — to the first value of each type —
// matching the cost profile of encoding many values into a single stream
// (such as a rollback log inside an agent container).
type SizingEncoder struct {
	cw  countingWriter
	enc *gob.Encoder
}

// NewSizingEncoder returns a fresh sizing session.
func NewSizingEncoder() *SizingEncoder {
	s := &SizingEncoder{}
	s.enc = gob.NewEncoder(&s.cw)
	return s
}

// Size appends v to the sizing stream and returns the bytes it added.
func (s *SizingEncoder) Size(v any) (int, error) {
	before := s.cw.n
	if err := s.enc.Encode(v); err != nil {
		return 0, fmt.Errorf("wire: size %T: %w", v, err)
	}
	return s.cw.n - before, nil
}

// Total returns the cumulative size of all values passed to Size.
func (s *SizingEncoder) Total() int { return s.cw.n }
