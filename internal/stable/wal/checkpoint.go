package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/metrics"
)

// Checkpoint file: a point-in-time snapshot of the live-key index plus the
// log position it reflects, so recovery replays only records at or after
// that position instead of the whole history (§4.3's bounded replay).
//
//	magic "WALCKPT1"
//	u32le segment id | u64le offset        (replay position)
//	u64le entry count
//	per entry: uvarint len(key) | key | u32le seg | u64le valOff | u64le valLen
//	u32le CRC-32 (IEEE) of everything above
//
// The file is written to a temp name, fsynced and renamed over
// "checkpoint", so there is always exactly one complete checkpoint (or
// none, on a store that never checkpointed). Every location in a persisted
// checkpoint points into a segment that still exists: the compactor
// re-checkpoints *before* deleting a rewritten segment.

const ckptName = "checkpoint"

var ckptMagic = []byte("WALCKPT1")

// ckptPos is a log position: all records strictly before (seg, off) are
// reflected by the index snapshot.
type ckptPos struct {
	seg uint32
	off int64
}

// loc is one index entry: where a key's current value lives. A deleted key
// has no loc. vlen 0 with voff 0 is a zero-length value.
type loc struct {
	seg  uint32
	voff int64
	vlen int64
}

var errNoCheckpoint = errors.New("wal: no checkpoint")

// writeCheckpoint atomically persists the index snapshot (fsynced file +
// directory, regardless of the Sync option: checkpoints gate what recovery
// replays, so a stale-but-complete checkpoint must be what a crash leaves
// behind). counters (may be nil) observes the fsyncs.
func writeCheckpoint(dir string, pos ckptPos, index map[string]loc, counters *metrics.Counters) error {
	buf := make([]byte, 0, 64+len(index)*48)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, pos.seg)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(pos.off))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(index)))
	for key, l := range index {
		buf = binary.AppendUvarint(buf, uint64(len(key)))
		buf = append(buf, key...)
		buf = binary.LittleEndian.AppendUint32(buf, l.seg)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(l.voff))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(l.vlen))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	path := filepath.Join(dir, ckptName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if err := timedSync(f.Sync, counters); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: install checkpoint: %w", err)
	}
	return syncDirObserved(dir, counters)
}

// timedSync runs one fsync-like call, reporting its latency to counters.
func timedSync(sync func() error, counters *metrics.Counters) error {
	start := time.Now()
	err := sync()
	counters.ObserveFsync(time.Since(start))
	return err
}

// loadCheckpoint reads and validates the checkpoint, returning the index
// snapshot and replay position. errNoCheckpoint means none exists;
// a present-but-invalid checkpoint is an error (it was fsynced before
// rename, so a CRC failure is real corruption, not a crash artifact).
func loadCheckpoint(dir string) (map[string]loc, ckptPos, error) {
	data, err := os.ReadFile(filepath.Join(dir, ckptName))
	if os.IsNotExist(err) {
		return nil, ckptPos{}, errNoCheckpoint
	}
	if err != nil {
		return nil, ckptPos{}, err
	}
	if len(data) < len(ckptMagic)+4+8+8+4 || string(data[:len(ckptMagic)]) != string(ckptMagic) {
		return nil, ckptPos{}, errors.New("wal: malformed checkpoint")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, ckptPos{}, errors.New("wal: checkpoint checksum mismatch")
	}
	pos := len(ckptMagic)
	cp := ckptPos{
		seg: binary.LittleEndian.Uint32(body[pos:]),
		off: int64(binary.LittleEndian.Uint64(body[pos+4:])),
	}
	count := binary.LittleEndian.Uint64(body[pos+12:])
	pos += 20
	// An entry is at least 21 bytes; a count the body cannot hold must not
	// size the map.
	if count > uint64(len(body)-pos)/21 {
		return nil, ckptPos{}, errors.New("wal: checkpoint entry count overruns the file")
	}
	index := make(map[string]loc, count)
	for i := uint64(0); i < count; i++ {
		klen, w := binary.Uvarint(body[pos:])
		if w <= 0 || uint64(len(body)-pos-w) < klen {
			return nil, ckptPos{}, errors.New("wal: checkpoint entry overrun")
		}
		pos += w
		key := string(body[pos : pos+int(klen)])
		pos += int(klen)
		if len(body)-pos < 20 {
			return nil, ckptPos{}, errors.New("wal: checkpoint entry overrun")
		}
		index[key] = loc{
			seg:  binary.LittleEndian.Uint32(body[pos:]),
			voff: int64(binary.LittleEndian.Uint64(body[pos+4:])),
			vlen: int64(binary.LittleEndian.Uint64(body[pos+12:])),
		}
		pos += 20
	}
	if pos != len(body) {
		return nil, ckptPos{}, errors.New("wal: trailing bytes in checkpoint")
	}
	return index, cp, nil
}

// syncDirObserved fsyncs a directory so renames and file creations in it
// are durable, reporting the latency to counters (may be nil).
func syncDirObserved(dir string, counters *metrics.Counters) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = timedSync(d.Sync, counters)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
