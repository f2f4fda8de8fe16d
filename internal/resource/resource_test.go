package resource

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stable"
	"repro/internal/txn"
	"repro/internal/wire"
)

func newTx(t *testing.T, m *txn.Manager) *txn.Tx {
	t.Helper()
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func setup(t *testing.T) (*txn.Manager, *stable.MemStore) {
	t.Helper()
	store := stable.NewMemStore(nil)
	m, err := txn.NewManager("n", store)
	if err != nil {
		t.Fatal(err)
	}
	return m, store
}

func TestBankDepositWithdraw(t *testing.T) {
	m, store := setup(t)
	b, err := NewBank(store, "bank", false)
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := b.OpenAccount(tx, "a", 100); err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit(tx, "a", 50); err != nil {
		t.Fatal(err)
	}
	if err := b.Withdraw(tx, "a", 30); err != nil {
		t.Fatal(err)
	}
	bal, err := b.Balance(tx, "a")
	if err != nil || bal != 120 {
		t.Errorf("balance = %d, %v", bal, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestBankOverdraftPolicy(t *testing.T) {
	m, store := setup(t)
	strict, err := NewBank(store, "strict", false)
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := strict.OpenAccount(tx, "a", 10); err != nil {
		t.Fatal(err)
	}
	if err := strict.Withdraw(tx, "a", 20); !errors.Is(err, ErrInsufficientFunds) {
		t.Errorf("err = %v, want ErrInsufficientFunds", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	lax, err := NewBank(store, "lax", true)
	if err != nil {
		t.Fatal(err)
	}
	tx2 := newTx(t, m)
	if err := lax.OpenAccount(tx2, "a", 10); err != nil {
		t.Fatal(err)
	}
	if err := lax.Withdraw(tx2, "a", 20); err != nil {
		t.Errorf("overdraft-capable withdraw: %v", err)
	}
	bal, _ := lax.Balance(tx2, "a")
	if bal != -10 {
		t.Errorf("balance = %d, want -10", bal)
	}
	_ = tx2.Abort()
}

func TestBankAbortRestoresState(t *testing.T) {
	m, store := setup(t)
	b, err := NewBank(store, "bank", false)
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := b.OpenAccount(tx, "a", 100); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := newTx(t, m)
	if err := b.Transfer(tx2, "a", "a", 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit(tx2, "a", 999); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	tx3 := newTx(t, m)
	bal, err := b.Balance(tx3, "a")
	if err != nil || bal != 100 {
		t.Errorf("balance after abort = %d, %v; want 100", bal, err)
	}
	_ = tx3.Abort()
}

func TestBankTransferAndReload(t *testing.T) {
	m, store := setup(t)
	b, err := NewBank(store, "bank", false)
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := b.OpenAccount(tx, "x", 100); err != nil {
		t.Fatal(err)
	}
	if err := b.OpenAccount(tx, "y", 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Transfer(tx, "x", "y", 60); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Reload from the store (node recovery path).
	b2, err := NewBank(store, "bank", false)
	if err != nil {
		t.Fatal(err)
	}
	tx2 := newTx(t, m)
	x, _ := b2.Balance(tx2, "x")
	y, _ := b2.Balance(tx2, "y")
	if x != 40 || y != 60 {
		t.Errorf("reloaded balances = %d/%d, want 40/60", x, y)
	}
	_ = tx2.Abort()
}

func TestBankIssueRedeemCash(t *testing.T) {
	m, store := setup(t)
	b, err := NewBank(store, "bank", false)
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := b.OpenAccount(tx, "a", 500); err != nil {
		t.Fatal(err)
	}
	cash, err := b.IssueCash(tx, "a", "USD", 200)
	if err != nil {
		t.Fatal(err)
	}
	if cash.Total("USD") != 200 {
		t.Errorf("issued = %d", cash.Total("USD"))
	}
	bal, _ := b.Balance(tx, "a")
	if bal != 300 {
		t.Errorf("balance = %d", bal)
	}
	cash2, err := b.IssueCash(tx, "a", "USD", 100)
	if err != nil {
		t.Fatal(err)
	}
	if cash2[0].Serial == cash[0].Serial {
		t.Error("coin serials repeat")
	}
	if err := b.RedeemCash(tx, "a", "USD", append(cash, cash2...)); err != nil {
		t.Fatal(err)
	}
	bal, _ = b.Balance(tx, "a")
	if bal != 500 {
		t.Errorf("balance after redeem = %d, want 500", bal)
	}
	_ = tx.Abort()
}

func TestBankUnknownAccount(t *testing.T) {
	m, store := setup(t)
	b, err := NewBank(store, "bank", false)
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := b.Deposit(tx, "ghost", 1); !errors.Is(err, ErrNoSuchAccount) {
		t.Errorf("err = %v, want ErrNoSuchAccount", err)
	}
	_ = tx.Abort()
}

func TestShopBuyAndOutOfStock(t *testing.T) {
	m, store := setup(t)
	s, err := NewShop(store, "shop", ShopConfig{Currency: "USD"})
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := s.Restock(tx, "book", 1, 100); err != nil {
		t.Fatal(err)
	}
	pay := Cash{{Serial: "c1", Currency: "USD", Value: 150}}
	change, err := s.Buy(tx, "book", 1, pay)
	if err != nil {
		t.Fatal(err)
	}
	if change.Total("USD") != 50 {
		t.Errorf("change = %d, want 50", change.Total("USD"))
	}
	if st, _ := s.StockOf(tx, "book"); st != 0 {
		t.Errorf("stock = %d, want 0", st)
	}
	// §3.2: second buyer finds the shelf empty.
	if _, err := s.Buy(tx, "book", 1, pay); !errors.Is(err, ErrOutOfStock) {
		t.Errorf("err = %v, want ErrOutOfStock", err)
	}
	if _, err := s.Buy(tx, "ghost", 1, pay); !errors.Is(err, ErrNoSuchItem) {
		t.Errorf("err = %v, want ErrNoSuchItem", err)
	}
	_ = tx.Abort()
}

func TestShopInsufficientPayment(t *testing.T) {
	m, store := setup(t)
	s, err := NewShop(store, "shop", ShopConfig{Currency: "USD"})
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := s.Restock(tx, "book", 1, 100); err != nil {
		t.Fatal(err)
	}
	pay := Cash{{Serial: "c1", Currency: "USD", Value: 10}}
	if _, err := s.Buy(tx, "book", 1, pay); !errors.Is(err, ErrInsufficientFunds) {
		t.Errorf("err = %v, want ErrInsufficientFunds", err)
	}
	_ = tx.Abort()
}

func TestShopRefundWithFee(t *testing.T) {
	m, store := setup(t)
	s, err := NewShop(store, "shop", ShopConfig{Currency: "USD", Mode: RefundCash, FeePercent: 10})
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := s.Restock(tx, "book", 1, 100); err != nil {
		t.Fatal(err)
	}
	pay := Cash{{Serial: "orig", Currency: "USD", Value: 100}}
	if _, err := s.Buy(tx, "book", 1, pay); err != nil {
		t.Fatal(err)
	}
	refund, note, err := s.Refund(tx, "book", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if note != nil {
		t.Error("cash refund produced a credit note")
	}
	if refund.Total("USD") != 90 {
		t.Errorf("refund = %d, want 90 (10%% fee)", refund.Total("USD"))
	}
	// §3.2: equivalent but not identical — fresh serial numbers.
	if refund[0].Serial == "orig" {
		t.Error("refund returned the original coin")
	}
	if st, _ := s.StockOf(tx, "book"); st != 1 {
		t.Errorf("stock after refund = %d, want 1", st)
	}
	if till, _ := s.TillTotal(tx); till != 10 {
		t.Errorf("till after refund = %d, want the 10 fee", till)
	}
	// The till pays refunds only out of what it holds.
	if _, _, err := s.Refund(tx, "book", 1, 100); !errors.Is(err, ErrInsufficientFunds) {
		t.Errorf("refund beyond the till: err = %v, want ErrInsufficientFunds", err)
	}
	if st, _ := s.StockOf(tx, "book"); st != 1 {
		t.Errorf("stock after a refused refund = %d, want 1", st)
	}
	_ = tx.Abort()
}

// TestShopStateSizeIndependentOfTrips pins that the persisted shop does
// not grow with the trips it served: after 10 and after 2 000 buy+refund
// pairs that each leave a 10% fee behind, the record differs only by
// varint growth of the till balance and the refund serial counter. (A
// coin-list till gained a coin per ~10 trips, ~26 B per ten.)
func TestShopStateSizeIndependentOfTrips(t *testing.T) {
	m, store := setup(t)
	s, err := NewShop(store, "shop", ShopConfig{Currency: "USD", Mode: RefundCash, FeePercent: 10})
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := s.Restock(tx, "book", 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var serial uint64
	recordAfter := func(trips int) int {
		t.Helper()
		for ; serial < uint64(trips); serial++ {
			tx := newTx(t, m)
			pay := Cash{mint("bank", serial, "USD", 100)}
			if _, err := s.Buy(tx, "book", 1, pay); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Refund(tx, "book", 1, 100); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		raw, ok, err := store.Get("res/shop/shop")
		if err != nil || !ok {
			t.Fatalf("shop record: %v, %v", ok, err)
		}
		return len(raw)
	}
	short, long := recordAfter(10), recordAfter(2000)
	if long-short > 4 {
		t.Errorf("shop record grew from %d B after 10 trips to %d B after 2000", short, long)
	}
	tx = newTx(t, m)
	defer func() { _ = tx.Abort() }()
	if till, _ := s.TillTotal(tx); till != 2000*10 {
		t.Errorf("till = %d, want %d: the sum of the fees", till, 2000*10)
	}
}

// TestShopRefusesCoinListTill: a shop record in the layout of commit
// 1b58917 (testdata, written by that commit's Shop: a till of coins
// worth 210 USD) fails to load as wire.ErrCorrupt, rather than loading
// as an empty till, and the store is left as it was.
func TestShopRefusesCoinListTill(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "shop-till-1b58917.bin"))
	if err != nil {
		t.Fatal(err)
	}
	store := stable.NewMemStore(nil)
	const key = KeyPrefix + "shop/shop"
	if err := store.Apply(stable.Put(key, old)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShop(store, "shop", ShopConfig{Currency: "USD"}); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("NewShop of a coin-list till = %v, want wire.ErrCorrupt", err)
	}
	if raw, _, _ := store.Get(key); !bytes.Equal(raw, old) {
		t.Error("the refusal modified the record")
	}
	if keys, _ := store.Keys(""); len(keys) != 1 {
		t.Errorf("the refusal wrote to the store: %v", keys)
	}

	// This layout's record reloads.
	m, fresh := setup(t)
	s, err := NewShop(fresh, "shop", ShopConfig{Currency: "USD"})
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := s.Restock(tx, "book", 1, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Buy(tx, "book", 1, Cash{mint("bank", 1, "USD", 100)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShop(fresh, "shop", ShopConfig{}); err != nil {
		t.Errorf("reload of a current record: %v", err)
	}
}

func TestShopRefundCreditNote(t *testing.T) {
	m, store := setup(t)
	s, err := NewShop(store, "shop", ShopConfig{Currency: "USD", Mode: RefundCreditNote})
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := s.Restock(tx, "book", 1, 100); err != nil {
		t.Fatal(err)
	}
	pay := Cash{{Serial: "c", Currency: "USD", Value: 100}}
	if _, err := s.Buy(tx, "book", 1, pay); err != nil {
		t.Fatal(err)
	}
	refund, note, err := s.Refund(tx, "book", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(refund) != 0 {
		t.Error("credit-note shop returned cash")
	}
	if note == nil || note.Value != 100 || note.Shop != "shop" {
		t.Errorf("note = %+v", note)
	}
	_ = tx.Abort()
}

func TestShopRefundNone(t *testing.T) {
	m, store := setup(t)
	s, err := NewShop(store, "shop", ShopConfig{Currency: "USD", Mode: RefundNone})
	if err != nil {
		t.Fatal(err)
	}
	if s.Compensable() {
		t.Error("RefundNone shop claims compensable")
	}
	tx := newTx(t, m)
	if _, _, err := s.Refund(tx, "book", 1, 100); !errors.Is(err, ErrNotCompensable) {
		t.Errorf("err = %v, want ErrNotCompensable", err)
	}
	_ = tx.Abort()
}

func TestExchangeConvertAndSpread(t *testing.T) {
	m, store := setup(t)
	e, err := NewExchange(store, "fx", 10) // 1% spread
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := e.SetRate(tx, "USD", "EUR", 900, 1_000_000); err != nil {
		t.Fatal(err)
	}
	in := Cash{{Serial: "c", Currency: "USD", Value: 1000}}
	out, err := e.Convert(tx, "USD", "EUR", in)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 USD * 0.9 = 900 gross, minus 1% spread = 891.
	if out.Total("EUR") != 891 {
		t.Errorf("converted = %d, want 891", out.Total("EUR"))
	}
	// Round trip is lossy (§3.2: equivalent, not identical).
	back, err := e.Convert(tx, "EUR", "USD", out)
	if err != nil {
		t.Fatal(err)
	}
	if back.Total("USD") >= 1000 {
		t.Errorf("round trip gained money: %d", back.Total("USD"))
	}
	_ = tx.Abort()
}

func TestExchangeNoRate(t *testing.T) {
	m, store := setup(t)
	e, err := NewExchange(store, "fx", 0)
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	in := Cash{{Serial: "c", Currency: "USD", Value: 10}}
	if _, err := e.Convert(tx, "USD", "JPY", in); err == nil {
		t.Error("conversion without rate succeeded")
	}
	_ = tx.Abort()
}

func TestExchangeReserveLimit(t *testing.T) {
	m, store := setup(t)
	e, err := NewExchange(store, "fx", 0)
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := e.SetRate(tx, "USD", "EUR", 1000, 50); err != nil {
		t.Fatal(err)
	}
	in := Cash{{Serial: "c", Currency: "USD", Value: 100}}
	if _, err := e.Convert(tx, "USD", "EUR", in); !errors.Is(err, ErrInsufficientFunds) {
		t.Errorf("err = %v, want ErrInsufficientFunds (reserves)", err)
	}
	_ = tx.Abort()
}

func TestDirectory(t *testing.T) {
	m, store := setup(t)
	d, err := NewDirectory(store, "dir")
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(t, m)
	if err := d.Put(tx, "host/web1", "up"); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(tx, "host/web2", "down"); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(tx, "other", "x"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := d.Lookup(tx, "host/web1")
	if err != nil || !ok || v != "up" {
		t.Errorf("Lookup = %q %v %v", v, ok, err)
	}
	hits, err := d.Search(tx, "host/")
	if err != nil || len(hits) != 2 || hits[0] != "host/web1=up" {
		t.Errorf("Search = %v, %v", hits, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Abort restores previous value and absence.
	tx2 := newTx(t, m)
	if err := d.Put(tx2, "host/web1", "changed"); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(tx2, "new", "y"); err != nil {
		t.Fatal(err)
	}
	_ = tx2.Abort()
	tx3 := newTx(t, m)
	if v, _, _ := d.Lookup(tx3, "host/web1"); v != "up" {
		t.Errorf("abort did not restore: %q", v)
	}
	if _, ok, _ := d.Lookup(tx3, "new"); ok {
		t.Error("aborted insert visible")
	}
	_ = tx3.Abort()
}

func TestCashTake(t *testing.T) {
	c := Cash{
		{Serial: "a", Currency: "USD", Value: 50},
		{Serial: "b", Currency: "EUR", Value: 100},
		{Serial: "c", Currency: "USD", Value: 70},
	}
	taken, rest, err := c.Take("USD", 60)
	if err != nil {
		t.Fatal(err)
	}
	if taken.Total("USD") != 60 {
		t.Errorf("taken = %d", taken.Total("USD"))
	}
	if rest.Total("USD") != 60 || rest.Total("EUR") != 100 {
		t.Errorf("rest = USD %d EUR %d", rest.Total("USD"), rest.Total("EUR"))
	}
	if _, _, err := c.Take("USD", 1000); !errors.Is(err, ErrInsufficientFunds) {
		t.Errorf("err = %v, want ErrInsufficientFunds", err)
	}
	if _, _, err := c.Take("USD", -1); err == nil {
		t.Error("negative take accepted")
	}
	// Take(0) is legal and takes nothing.
	taken0, rest0, err := c.Take("USD", 0)
	if err != nil || len(taken0) != 0 || rest0.Total("USD") != 120 {
		t.Errorf("take 0 = %v / %v / %v", taken0, rest0, err)
	}
}

func TestResourceKindsAndNames(t *testing.T) {
	store := stable.NewMemStore(nil)
	b, _ := NewBank(store, "b1", false)
	s, _ := NewShop(store, "s1", ShopConfig{})
	e, _ := NewExchange(store, "e1", 0)
	d, _ := NewDirectory(store, "d1")
	for _, c := range []struct {
		r    Resource
		name string
		kind string
	}{
		{b, "b1", "bank"}, {s, "s1", "shop"}, {e, "e1", "exchange"}, {d, "d1", "directory"},
	} {
		if c.r.Name() != c.name || c.r.Kind() != c.kind {
			t.Errorf("%T: %s/%s, want %s/%s", c.r, c.r.Name(), c.r.Kind(), c.name, c.kind)
		}
	}
}
