// Package wire provides the serialization substrate of the system.
//
// The paper's prototype (Mole) relied on Java object serialization to
// capture an agent's private data and rollback log for migration and for
// stable storage. This package plays the same role: per-value gob
// encoding for containers and stable-storage records, the hand-rolled
// binary codec for protocol messages and TCP frames, and tagged zero-gob
// fast paths for the common scalar kinds.
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

// Register makes a concrete type known to gob. It must be called (typically
// from package variables of the owning package) for every type stored in an
// interface field of a serialized structure, e.g. rollback-log entries.
func Register(v any) { gob.Register(v) }

// RegisterName registers a concrete type under a stable name, decoupling the
// wire format from Go package paths.
func RegisterName(name string, v any) { gob.RegisterName(name, v) }

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

// countingWriter counts bytes without retaining them.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// EncodedSize returns the gob-encoded size in bytes of vs written to one
// stream, without materializing the encoding: the encoder writes into a
// counting sink, so sizing allocates no payload-sized buffers. As in any
// gob stream a type descriptor is charged once, to the first value of
// its type — the cost profile of a rollback log inside an agent
// container. It is used for the log-size metrics and experiments.
func EncodedSize(vs ...any) (int, error) {
	var cw countingWriter
	enc := gob.NewEncoder(&cw)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return 0, fmt.Errorf("wire: size %T: %w", v, err)
		}
	}
	return cw.n, nil
}
