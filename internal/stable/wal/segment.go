package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/stable"
)

// Segment file format. A segment is a sequence of records, each holding
// one committed group of batch ops:
//
//	u32le payload length | u32le CRC-32 (IEEE) of payload | payload
//
// payload:
//
//	uvarint nops
//	per op: uvarint len(key) | key | uvarint len(value)+1 | value
//
// A value length field of 0 encodes a delete (tombstone); field v encodes
// a put of v-1 value bytes. The CRC covers the payload only; the length
// word is validated by bounds checks during scan. A record is the
// crash-atomicity unit: recovery drops a record whose length or CRC does
// not check out, which (for the final record of the final segment) is
// exactly a torn write.

const (
	recHeaderSize = 8
	// maxRecordSize bounds a single record so a corrupt length word cannot
	// drive allocation; 1 GiB is far above any agent container.
	maxRecordSize = 1 << 30
	segSuffix     = ".seg"
)

var (
	// errTorn reports a truncated or corrupt record during a segment scan.
	errTorn = errors.New("wal: torn record")
)

// segmentName formats the file name of segment id.
func segmentName(id uint32) string { return fmt.Sprintf("%08d%s", id, segSuffix) }

// parseSegmentName extracts the id from a segment file name.
func parseSegmentName(name string) (uint32, bool) {
	if len(name) != 8+len(segSuffix) || name[8:] != segSuffix {
		return 0, false
	}
	var id uint32
	for _, c := range name[:8] {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + uint32(c-'0')
	}
	return id, true
}

// segment is one log file. size and live are guarded by the engine lock.
type segment struct {
	id   uint32
	f    *os.File
	size int64 // bytes appended (file size)
	live int64 // payload bytes of records still referenced by the index
}

func (s *segment) path(dir string) string { return filepath.Join(dir, segmentName(s.id)) }

// recBuf is a pooled record buffer; b holds header + payload.
type recBuf struct{ b []byte }

var payloadPool = sync.Pool{New: func() any { return new(recBuf) }}

// encodeRecord serializes a group of ops into a full record (header +
// payload) inside a pooled buffer; the caller returns it with
// payloadPool.Put when done. valOffs holds the offset of each op's value
// *within the record*, -1 for deletes; value offsets become absolute by
// adding the record's position in its segment.
func encodeRecord(ops []stable.Op) (rb *recBuf, valOffs []int, err error) {
	rb = payloadPool.Get().(*recBuf)
	buf := rb.b[:0]
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	var tmp [binary.MaxVarintLen64]byte
	put := func(n uint64) {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], n)]...)
	}
	put(uint64(len(ops)))
	valOffs = make([]int, len(ops))
	for i, op := range ops {
		put(uint64(len(op.Key)))
		buf = append(buf, op.Key...)
		if op.Value == nil {
			put(0)
			valOffs[i] = -1
			continue
		}
		put(uint64(len(op.Value)) + 1)
		valOffs[i] = len(buf)
		buf = append(buf, op.Value...)
	}
	rb.b = buf
	payload := buf[recHeaderSize:]
	if len(payload) > maxRecordSize {
		payloadPool.Put(rb)
		return nil, nil, fmt.Errorf("wal: record of %d bytes exceeds the %d limit", len(payload), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return rb, valOffs, nil
}

// scanOp is one decoded op during a segment scan: the value offset is
// absolute within the segment file (-1 for a delete).
type scanOp struct {
	key    string
	valOff int64
	valLen int64
	del    bool
}

// scanRecords reads records from r, a segment of size bytes, starting at
// offset off, invoking fn for every op of every valid record (recEnd is
// the file offset just past the record). It returns the offset just past
// the last valid record. A short read, bad length or CRC mismatch stops
// the scan with errTorn wrapped alongside the good offset — the caller
// decides whether a torn tail is recoverable (final segment) or corruption
// (earlier segment).
func scanRecords(r io.ReaderAt, off, size int64, fn func(op scanOp, recEnd int64) error) (int64, error) {
	var hdr [recHeaderSize]byte
	for {
		if n, err := r.ReadAt(hdr[:], off); err != nil {
			if n == 0 && err == io.EOF {
				return off, nil // clean end
			}
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, errTorn // partial header
			}
			return off, err
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		// No valid record is empty (empty groups are never appended), so a
		// zero length word is a torn or zero-filled tail, not corruption.
		// One that points past the end of the segment is refused here,
		// before a buffer is sized by it.
		if plen == 0 || plen > maxRecordSize || plen > size-off-recHeaderSize {
			return off, errTorn
		}
		rb := payloadPool.Get().(*recBuf)
		if int64(cap(rb.b)) < plen {
			rb.b = make([]byte, plen)
		}
		payload := rb.b[:plen]
		rb.b = payload
		if _, err := r.ReadAt(payload, off+recHeaderSize); err != nil {
			payloadPool.Put(rb)
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, errTorn // truncated payload
			}
			return off, err
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			payloadPool.Put(rb)
			return off, errTorn
		}
		recEnd := off + recHeaderSize + plen
		err := decodePayload(payload, off+recHeaderSize, recEnd, fn)
		payloadPool.Put(rb)
		if err != nil {
			// The CRC checked out, so a malformed payload is an encoder
			// bug or targeted corruption, not a torn write.
			return off, fmt.Errorf("wal: malformed record at offset %d: %w", off, err)
		}
		off = recEnd
	}
}

// decodePayload walks one validated record payload. base is the absolute
// file offset of the payload's first byte.
func decodePayload(payload []byte, base, recEnd int64, fn func(op scanOp, recEnd int64) error) error {
	pos := 0
	next := func() (uint64, error) {
		n, w := binary.Uvarint(payload[pos:])
		if w <= 0 {
			return 0, errors.New("bad varint")
		}
		pos += w
		return n, nil
	}
	nops, err := next()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nops; i++ {
		klen, err := next()
		if err != nil {
			return err
		}
		if uint64(len(payload)-pos) < klen {
			return errors.New("key overruns payload")
		}
		key := string(payload[pos : pos+int(klen)])
		pos += int(klen)
		vfield, err := next()
		if err != nil {
			return err
		}
		op := scanOp{key: key, del: vfield == 0}
		if !op.del {
			vlen := vfield - 1
			if uint64(len(payload)-pos) < vlen {
				return errors.New("value overruns payload")
			}
			op.valOff = base + int64(pos)
			op.valLen = int64(vlen)
			pos += int(vlen)
		}
		if err := fn(op, recEnd); err != nil {
			return err
		}
	}
	if pos != len(payload) {
		return errors.New("trailing bytes in record")
	}
	return nil
}
