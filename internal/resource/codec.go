package resource

import (
	"maps"
	"slices"

	"repro/internal/wire"
)

// Binary records of resource state (wire.Reader's canonical format;
// DESIGN.md "Wire format"), one per resource under res/<kind>/<name>:
//
//	0x90 0x30 bank       AllowOverdraft:bool CoinSeq Accounts:{acct balance}
//	0x90 0x31 shop       Currency Stock:{item qty} Price:{item price} Till Mode FeePercent CoinSeq
//	0x90 0x32 directory  Data:{key value}
//	0x90 0x33 exchange   RateMilli:{pair rate} SpreadMilli Reserves:{currency amount} CoinSeq
//
// Integers are signed varints and CoinSeq unsigned; {…} is a count, then
// the entries in ascending key order. The gob records this replaced were
// last read by commit 60b3006 (node.New refuses them).
//
// Binary type bytes of the resource block 0x30..0x37 (registry in
// wire/binary.go); never reuse a value.
const (
	typeBank      = 0x30
	typeShop      = 0x31
	typeDirectory = 0x32
	typeExchange  = 0x33
)

// state is a resource's persisted state: the body of its record.
type state interface {
	appendTo(buf []byte) []byte
	readFrom(r *wire.Reader)
}

// encodeState returns the record of st under type byte typ.
func encodeState(typ byte, st state) []byte {
	return st.appendTo(append(make([]byte, 0, 64), wire.BinaryVersion, typ))
}

// decodeState reads a record of type typ into st; anything but exactly one
// well-formed record is wire.ErrCorrupt.
func decodeState(raw []byte, typ byte, st state) error {
	body, err := wire.Body(raw, typ)
	if err != nil {
		return err
	}
	r := wire.NewReader(body)
	st.readFrom(r)
	return r.Done()
}

func appendMap[V any](buf []byte, m map[string]V, put func([]byte, V) []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		buf = put(wire.AppendString(buf, k), m[k])
	}
	return buf
}

func readMap[V any](r *wire.Reader, get func() V) map[string]V {
	n := r.Count(2) // a key costs a length byte, a value at least one
	m := make(map[string]V, n)
	for i, prev := 0, ""; i < n && r.Err() == nil; i++ {
		k := r.String()
		if i > 0 && k <= prev {
			r.Fail("key %q out of order", k)
		}
		m[k], prev = get(), k
	}
	return m
}

func appendInt(buf []byte, v int) []byte { return wire.AppendVarint(buf, int64(v)) }

func (s *bankState) appendTo(buf []byte) []byte {
	buf = wire.AppendBool(buf, s.AllowOverdraft)
	buf = wire.AppendUvarint(buf, s.CoinSeq)
	return appendMap(buf, s.Accounts, wire.AppendVarint)
}

func (s *bankState) readFrom(r *wire.Reader) {
	s.AllowOverdraft, s.CoinSeq = r.Bool(), r.Uvarint()
	s.Accounts = readMap(r, r.Varint)
}

func (s *shopState) appendTo(buf []byte) []byte {
	buf = wire.AppendString(buf, s.Currency)
	buf = appendMap(buf, s.Stock, appendInt)
	buf = appendMap(buf, s.Price, wire.AppendVarint)
	buf = wire.AppendVarint(buf, s.Till)
	buf = wire.AppendVarint(buf, int64(s.Mode))
	buf = wire.AppendVarint(buf, s.FeePercent)
	return wire.AppendUvarint(buf, s.CoinSeq)
}

func (s *shopState) readFrom(r *wire.Reader) {
	s.Currency = r.String()
	s.Stock = readMap(r, r.Int)
	s.Price = readMap(r, r.Varint)
	s.Till, s.Mode, s.FeePercent, s.CoinSeq = r.Varint(), RefundMode(r.Int()), r.Varint(), r.Uvarint()
}

func (s *directoryState) appendTo(buf []byte) []byte {
	return appendMap(buf, s.Data, wire.AppendString)
}

func (s *directoryState) readFrom(r *wire.Reader) {
	s.Data = readMap(r, r.String)
}

func (s *exchangeState) appendTo(buf []byte) []byte {
	buf = appendMap(buf, s.RateMilli, wire.AppendVarint)
	buf = wire.AppendVarint(buf, s.SpreadMilli)
	buf = appendMap(buf, s.Reserves, wire.AppendVarint)
	return wire.AppendUvarint(buf, s.CoinSeq)
}

func (s *exchangeState) readFrom(r *wire.Reader) {
	s.RateMilli = readMap(r, r.Varint)
	s.SpreadMilli = r.Varint()
	s.Reserves = readMap(r, r.Varint)
	s.CoinSeq = r.Uvarint()
}
