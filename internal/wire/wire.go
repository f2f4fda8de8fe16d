// Package wire provides the serialization substrate of the system.
//
// The paper's prototype (Mole) relied on Java object serialization to
// capture an agent's private data and rollback log for migration and for
// stable storage. This package plays the same role. Everything the
// runtime itself defines — protocol messages, TCP frames, the agent
// container with its itinerary, data spaces and rollback log, and the
// records it keeps on stable storage — travels in the hand-rolled
// length-prefixed binary format of binary.go. User-defined values
// (data-space objects, compensation parameters) are opaque bytes produced
// by the value codec of scalar.go: a tagged encoding for int/int64/string/
// []byte/bool, []int and any encoding.BinaryMarshaler, gob for every other
// type. That fallback is the one use of gob left (Encode/Decode below);
// nothing the runtime defines is gob.
package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
)

// MaxMessageSize bounds a single message on the wire (64 MiB). A decoder
// refusing larger messages keeps a corrupt or malicious byte stream from
// triggering an unbounded allocation.
const MaxMessageSize = 64 << 20

// ErrMessageTooLarge is returned when a message exceeds MaxMessageSize.
var ErrMessageTooLarge = errors.New("wire: message exceeds maximum size")

// bufPool recycles encode scratch buffers. A buffer grows to the largest
// value it ever encoded and is then reused, so steady-state encoding
// allocates only the exact-size result slice instead of re-growing a fresh
// bytes.Buffer per call.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps the capacity of scratch buffers kept alive by the
// pool: a rare huge value (a multi-MiB agent container) must not
// pin a same-sized buffer for the process lifetime.
const maxPooledBuf = 1 << 20

// putBuf returns a scratch buffer to the pool unless it grew past the
// retention cap.
func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// Encode gob-encodes v into a fresh byte slice sized exactly to the
// encoding. The scratch buffer is pooled; the returned slice is owned by
// the caller.
func Encode(v any) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		putBuf(buf)
		return nil, fmt.Errorf("wire: encode %T: %w", v, err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	putBuf(buf)
	return out, nil
}

// Decode gob-decodes data into v, which must be a non-nil pointer.
func Decode(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("wire: decode %T: %w", v, err)
	}
	return nil
}

// MustEncode is Encode for values that are known to be encodable (all types
// registered by this repository). It panics on failure; use it only for
// values constructed by this codebase, never for external input.
func MustEncode(v any) []byte {
	data, err := Encode(v)
	if err != nil {
		panic(err)
	}
	return data
}
