package resource

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/stable"
	"repro/internal/txn"
	"repro/internal/wire"
)

// realRecords runs a few operations on one resource of every kind and
// returns the records their commits wrote, keyed by store key.
func realRecords(t testing.TB) map[string][]byte {
	t.Helper()
	store := stable.NewMemStore(nil)
	m, err := txn.NewManager("n", store)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBank(store, "bank", false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShop(store, "shop", ShopConfig{Currency: "USD", FeePercent: 10})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDirectory(store, "dir")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExchange(store, "fx", 5)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.OpenAccount(tx, "alice", 1000))
	must(b.OpenAccount(tx, "bob", -5))
	cash, err := b.IssueCash(tx, "alice", "USD", 300)
	must(err)
	must(s.Restock(tx, "book", 5, 100))
	must(s.Restock(tx, "pen", 0, 3))
	_, err = s.Buy(tx, "book", 2, cash)
	must(err)
	_, _, err = s.Refund(tx, "book", 1, 100)
	must(err)
	must(d.Put(tx, "review/book", "good"))
	must(d.Put(tx, "", ""))
	must(e.SetRate(tx, "USD", "EUR", 900, 10_000))
	must(tx.Commit())
	out := make(map[string][]byte)
	for _, k := range []string{"res/bank/bank", "res/shop/shop", "res/directory/dir", "res/exchange/fx"} {
		raw, ok, err := store.Get(k)
		if err != nil || !ok {
			t.Fatalf("%s: %v %v", k, ok, err)
		}
		out[k] = raw
	}
	return out
}

// fuzzState fuzzes one resource-state decoder, seeded with a real record:
// decodeState never panics, refuses what it refuses as wire.ErrCorrupt,
// allocates in proportion to its input whatever count a map declares, and
// accepts only what re-encodes to the same bytes. A gob record of the
// layout it replaced is refused.
func fuzzState[S any, P interface {
	*S
	state
}](f *testing.F, typ byte, key string) {
	f.Add(realRecords(f)[key])
	f.Add([]byte{wire.BinaryVersion, typ})
	if old, err := os.ReadFile(filepath.Join("testdata", "bank-gob-60b3006.bin")); err == nil {
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		st := P(new(S))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeState(raw, typ, st)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+1<<16); n > limit {
			t.Fatalf("decoding %d bytes allocated %d, want <= %d", len(raw), n, limit)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("refused with %v, want wire.ErrCorrupt", err)
			}
			return
		}
		if again := encodeState(typ, st); !bytes.Equal(again, raw) {
			t.Fatalf("record does not re-encode to itself:\n got % x\nwant % x", again, raw)
		}
	})
}

// FuzzBankState fuzzes the bank record's decoder (see fuzzState).
func FuzzBankState(f *testing.F) {
	fuzzState[bankState](f, typeBank, "res/bank/bank")
}

// FuzzShopState fuzzes the shop record's decoder (see fuzzState).
func FuzzShopState(f *testing.F) {
	fuzzState[shopState](f, typeShop, "res/shop/shop")
}

// FuzzDirectoryState fuzzes the directory record's decoder (see fuzzState).
func FuzzDirectoryState(f *testing.F) {
	fuzzState[directoryState](f, typeDirectory, "res/directory/dir")
}

// FuzzExchangeState fuzzes the exchange record's decoder (see fuzzState).
func FuzzExchangeState(f *testing.F) {
	fuzzState[exchangeState](f, typeExchange, "res/exchange/fx")
}

// FuzzCash fuzzes the decoder of digital cash in a data space
// (Cash.UnmarshalBinary): it never panics, refuses as wire.ErrCorrupt,
// allocates in proportion to its input whatever coin count it declares,
// and accepts only what re-encodes to the same bytes. The gob wallet of
// layout 1 is refused.
func FuzzCash(f *testing.F) {
	for _, c := range []Cash{nil, {}, {{Serial: "bank-00000001", Currency: "USD", Value: 500}},
		{{Serial: "a", Currency: "EUR", Value: -1}, {}}} {
		data, err := c.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{0xff, 0xff, 0x7f}) // a count past the input
	if old, err := os.ReadFile(filepath.Join("testdata", "wallet-gob-15a522f.bin")); err == nil {
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Cash
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<16); n > limit {
			t.Fatalf("decoding %d bytes allocated %d, want <= %d", len(data), n, limit)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("refused with %v, want wire.ErrCorrupt", err)
			}
			return
		}
		if again, _ := c.MarshalBinary(); !bytes.Equal(again, data) {
			t.Fatalf("cash does not re-encode to itself:\n got % x\nwant % x", again, data)
		}
	})
}

// TestGobRecordsRefused: the gob records of commit 60b3006 (testdata,
// written by that commit's Bank and Shop) fail to load as
// wire.ErrCorrupt.
func TestGobRecordsRefused(t *testing.T) {
	for _, tc := range []struct {
		file, key string
		open      func(stable.Store) error
	}{
		{"bank-gob-60b3006.bin", "res/bank/bank", func(s stable.Store) error {
			_, err := NewBank(s, "bank", false)
			return err
		}},
		{"shop-gob-60b3006.bin", "res/shop/shop", func(s stable.Store) error {
			_, err := NewShop(s, "shop", ShopConfig{})
			return err
		}},
	} {
		old, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		store := stable.NewMemStore(nil)
		if err := store.Apply(stable.Put(tc.key, old)); err != nil {
			t.Fatal(err)
		}
		if err := tc.open(store); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: load = %v, want wire.ErrCorrupt", tc.file, err)
		}
		if raw, _, _ := store.Get(tc.key); !bytes.Equal(raw, old) {
			t.Errorf("%s: the refusal modified the record", tc.file)
		}
	}
}

// TestRecordsReload: every kind's record loads back into the state that
// wrote it.
func TestRecordsReload(t *testing.T) {
	recs := realRecords(t)
	store := stable.NewMemStore(nil)
	for k, v := range recs {
		if err := store.Apply(stable.Put(k, v)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := NewBank(store, "bank", true)
	if err != nil || b.state.AllowOverdraft || b.state.CoinSeq != 1 || b.state.Accounts["alice"] != 700 || b.state.Accounts["bob"] != -5 {
		t.Errorf("bank = %+v, %v", b.state, err)
	}
	s, err := NewShop(store, "shop", ShopConfig{})
	if err != nil || s.state.Currency != "USD" || s.state.Stock["book"] != 4 || s.state.Price["pen"] != 3 ||
		s.state.Till != 110 || s.state.Mode != RefundCash || s.state.FeePercent != 10 || s.state.CoinSeq != 1 {
		t.Errorf("shop = %+v, %v", s.state, err)
	}
	d, err := NewDirectory(store, "dir")
	if v, ok := d.state.Data[""]; err != nil || !ok || v != "" || d.state.Data["review/book"] != "good" {
		t.Errorf("directory = %+v, %v", d.state, err)
	}
	e, err := NewExchange(store, "fx", 0)
	if err != nil || e.state.SpreadMilli != 5 || e.state.RateMilli["USD/EUR"] != 900 || e.state.Reserves["EUR"] != 10_000 {
		t.Errorf("exchange = %+v, %v", e.state, err)
	}
}
