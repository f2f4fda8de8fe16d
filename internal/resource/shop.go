package resource

import (
	"fmt"

	"repro/internal/stable"
	"repro/internal/txn"
	"repro/internal/wire"
)

// RefundMode selects the shop's compensation policy (§3.2: "the seller of
// the goods charges a small fee for the compensation transaction or only
// agrees to give a credit note to the customer").
type RefundMode int

// Refund policies.
const (
	// RefundCash returns cash minus FeePercent.
	RefundCash RefundMode = iota + 1
	// RefundCreditNote returns no cash; the buyer receives a credit note.
	RefundCreditNote
	// RefundNone marks purchases at this shop non-compensable (§3.2 end:
	// steps containing such operations cannot be rolled back).
	RefundNone
)

// CreditNote is the non-cash compensation artifact a shop may hand out.
type CreditNote struct {
	Shop     string
	Currency string
	Value    int64
}

// Shop sells goods for digital cash. Buying when stock is empty fails with
// ErrOutOfStock, reproducing the §3.2 scenario where an agent simply buys
// at another shop. The till is a balance in the shop's currency, not the
// coins themselves: a payment is deposited, a refund is paid out of it in
// freshly minted coins, so the persisted state stays the same size however
// many purchases and refunds it has seen.
type Shop struct {
	base
	state shopState
}

type shopState struct {
	Currency   string
	Stock      map[string]int
	Price      map[string]int64
	Till       int64 // a coin list (Cash) up to 1b58917, see IsRetiredShopRecord
	Mode       RefundMode
	FeePercent int64
	CoinSeq    uint64
}

var _ Resource = (*Shop)(nil)

// ShopConfig configures a new shop.
type ShopConfig struct {
	Currency   string
	Mode       RefundMode
	FeePercent int64 // refund fee in percent, applied in RefundCash mode
}

// IsRetiredShopRecord reports whether raw is a shop record whose till is
// a coin list, the layout of commit 1b58917 and before: a gob record that
// defines the Cash type. Such a record is refused, never read (node.New
// names it): its coins have no balance to land in, and NewShop fails to
// decode it.
func IsRetiredShopRecord(raw []byte) bool {
	return wire.GobDefines(raw, "Cash")
}

// NewShop creates or re-loads the shop named name on the given store.
func NewShop(store stable.Store, name string, cfg ShopConfig) (*Shop, error) {
	s := &Shop{base: base{name: name, kind: "shop", typ: typeShop, store: store}}
	ok, err := s.load(&s.state)
	if err != nil {
		return nil, err
	}
	if !ok {
		if cfg.Currency == "" {
			cfg.Currency = "USD"
		}
		if cfg.Mode == 0 {
			cfg.Mode = RefundCash
		}
		s.state = shopState{
			Currency:   cfg.Currency,
			Stock:      make(map[string]int),
			Price:      make(map[string]int64),
			Mode:       cfg.Mode,
			FeePercent: cfg.FeePercent,
		}
	}
	return s, nil
}

// Currency returns the currency the shop trades in.
func (s *Shop) Currency() string { return s.state.Currency }

// Compensable reports whether purchases at this shop can be rolled back.
func (s *Shop) Compensable() bool { return s.state.Mode != RefundNone }

// Restock adds qty units of item at the given unit price.
func (s *Shop) Restock(tx *txn.Tx, item string, qty int, price int64) error {
	if err := s.lockTx(tx); err != nil {
		return err
	}
	oldQty, hadQty := s.state.Stock[item]
	oldPrice, hadPrice := s.state.Price[item]
	s.state.Stock[item] = oldQty + qty
	s.state.Price[item] = price
	tx.RecordUndo(func() {
		if hadQty {
			s.state.Stock[item] = oldQty
		} else {
			delete(s.state.Stock, item)
		}
		if hadPrice {
			s.state.Price[item] = oldPrice
		} else {
			delete(s.state.Price, item)
		}
	})
	s.persist(tx, &s.state)
	return nil
}

// StockOf returns the units of item currently in stock.
func (s *Shop) StockOf(tx *txn.Tx, item string) (int, error) {
	if err := s.lockTx(tx); err != nil {
		return 0, err
	}
	return s.state.Stock[item], nil
}

// PriceOf returns the unit price of item.
func (s *Shop) PriceOf(tx *txn.Tx, item string) (int64, error) {
	if err := s.lockTx(tx); err != nil {
		return 0, err
	}
	p, ok := s.state.Price[item]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchItem, item)
	}
	return p, nil
}

// Buy purchases qty units of item, paying with coins from payment. It
// returns the change. The payment must cover qty×price in the shop's
// currency.
func (s *Shop) Buy(tx *txn.Tx, item string, qty int, payment Cash) (change Cash, err error) {
	if err := s.lockTx(tx); err != nil {
		return nil, err
	}
	price, ok := s.state.Price[item]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchItem, item)
	}
	have := s.state.Stock[item]
	if have < qty {
		return nil, fmt.Errorf("%w: %q (%d in stock, want %d)", ErrOutOfStock, item, have, qty)
	}
	cost := price * int64(qty)
	paid, change, err := payment.Take(s.state.Currency, cost)
	if err != nil {
		return nil, err
	}
	oldStock := have
	oldTill := s.state.Till
	s.state.Stock[item] = have - qty
	s.state.Till += paid.Total(s.state.Currency)
	tx.RecordUndo(func() {
		s.state.Stock[item] = oldStock
		s.state.Till = oldTill
	})
	s.persist(tx, &s.state)
	return change, nil
}

// TillTotal returns the value of the cash currently in the shop's till
// (payments received minus refunds paid out).
func (s *Shop) TillTotal(tx *txn.Tx) (int64, error) {
	if err := s.lockTx(tx); err != nil {
		return 0, err
	}
	return s.state.Till, nil
}

// Refund compensates a purchase: the goods go back into stock and the shop
// returns cash minus the refund fee (RefundCash), a credit note
// (RefundCreditNote), or fails (RefundNone). The returned coins are newly
// minted — equivalent value, different serial numbers (§3.2).
func (s *Shop) Refund(tx *txn.Tx, item string, qty int, paidAmount int64) (Cash, *CreditNote, error) {
	if err := s.lockTx(tx); err != nil {
		return nil, nil, err
	}
	switch s.state.Mode {
	case RefundNone:
		return nil, nil, fmt.Errorf("%w: shop %q gives no refunds", ErrNotCompensable, s.name)
	case RefundCreditNote:
		oldStock := s.state.Stock[item]
		s.state.Stock[item] = oldStock + qty
		tx.RecordUndo(func() { s.state.Stock[item] = oldStock })
		s.persist(tx, &s.state)
		return nil, &CreditNote{Shop: s.name, Currency: s.state.Currency, Value: paidAmount}, nil
	}
	// RefundCash: return paidAmount minus the fee in fresh coins.
	refund := paidAmount - paidAmount*s.state.FeePercent/100
	if refund < 0 {
		return nil, nil, fmt.Errorf("shop %s: refund: negative amount %d", s.name, refund)
	}
	if s.state.Till < refund {
		return nil, nil, fmt.Errorf("shop %s: refund: %w", s.name, ErrInsufficientFunds)
	}
	oldStock := s.state.Stock[item]
	oldTill := s.state.Till
	oldSeq := s.state.CoinSeq
	s.state.Stock[item] = oldStock + qty
	// The till keeps the fee; pay refund-worth of value out of it.
	s.state.Till -= refund
	s.state.CoinSeq++
	coin := mint(s.name+"-refund", s.state.CoinSeq, s.state.Currency, refund)
	tx.RecordUndo(func() {
		s.state.Stock[item] = oldStock
		s.state.Till = oldTill
		s.state.CoinSeq = oldSeq
	})
	s.persist(tx, &s.state)
	return Cash{coin}, nil, nil
}
