package resource

import (
	"fmt"

	"repro/internal/stable"
	"repro/internal/txn"
)

// Exchange converts digital cash between currencies — the paper's example
// of an operation whose compensation is a *mixed* compensation entry
// (§4.4.1): changing the money back needs the weakly reversible wallet
// object holding the received cash (it cannot be stored in the rollback
// log, §4.1), the object the returned cash goes into, and the exchange
// resource itself.
type Exchange struct {
	base
	state exchangeState
}

type exchangeState struct {
	// RateMilli maps "FROM/TO" to the exchange rate in 1/1000ths:
	// out = in * RateMilli / 1000.
	RateMilli map[string]int64
	// SpreadMilli is the per-conversion spread the exchange keeps, in
	// 1/1000ths of the converted amount. A non-zero spread makes the
	// round trip lossy: compensation yields an equivalent but not
	// identical augmented state (§3.2).
	SpreadMilli int64
	Reserves    map[string]int64
	CoinSeq     uint64
}

var _ Resource = (*Exchange)(nil)

// NewExchange creates or re-loads the exchange named name.
func NewExchange(store stable.Store, name string, spreadMilli int64) (*Exchange, error) {
	e := &Exchange{base: base{name: name, kind: "exchange", typ: typeExchange, store: store}}
	ok, err := e.load(&e.state)
	if err != nil {
		return nil, err
	}
	if !ok {
		e.state = exchangeState{
			RateMilli:   make(map[string]int64),
			SpreadMilli: spreadMilli,
			Reserves:    make(map[string]int64),
		}
	}
	return e, nil
}

func pair(from, to string) string { return from + "/" + to }

// SetRate fixes the conversion rate from → to (and the exact inverse) in
// 1/1000ths, and funds the reserves so conversions can be served.
func (e *Exchange) SetRate(tx *txn.Tx, from, to string, rateMilli, reserve int64) error {
	if err := e.lockTx(tx); err != nil {
		return err
	}
	if rateMilli <= 0 {
		return fmt.Errorf("exchange %s: invalid rate %d", e.name, rateMilli)
	}
	old := e.state
	e.state.RateMilli = copyMap(old.RateMilli)
	e.state.Reserves = copyMap(old.Reserves)
	e.state.RateMilli[pair(from, to)] = rateMilli
	e.state.RateMilli[pair(to, from)] = 1000 * 1000 / rateMilli
	e.state.Reserves[from] += reserve
	e.state.Reserves[to] += reserve
	tx.RecordUndo(func() { e.state = old })
	e.persist(tx, &e.state)
	return nil
}

// Rate returns the from → to rate in 1/1000ths.
func (e *Exchange) Rate(tx *txn.Tx, from, to string) (int64, error) {
	if err := e.lockTx(tx); err != nil {
		return 0, err
	}
	r, ok := e.state.RateMilli[pair(from, to)]
	if !ok {
		return 0, fmt.Errorf("exchange %s: no rate %s", e.name, pair(from, to))
	}
	return r, nil
}

// Convert exchanges the coins in, denominated in from, into freshly minted
// coins in to. The spread is deducted from the converted amount.
func (e *Exchange) Convert(tx *txn.Tx, from, to string, in Cash) (Cash, error) {
	if err := e.lockTx(tx); err != nil {
		return nil, err
	}
	rate, ok := e.state.RateMilli[pair(from, to)]
	if !ok {
		return nil, fmt.Errorf("exchange %s: no rate %s", e.name, pair(from, to))
	}
	amountIn := in.Total(from)
	if amountIn == 0 {
		return nil, fmt.Errorf("exchange %s: no %s cash tendered", e.name, from)
	}
	gross := amountIn * rate / 1000
	net := gross - gross*e.state.SpreadMilli/1000
	if e.state.Reserves[to] < net {
		return nil, fmt.Errorf("%w: exchange %s reserves in %s", ErrInsufficientFunds, e.name, to)
	}
	old := e.state
	e.state.Reserves = copyMap(old.Reserves)
	e.state.Reserves[from] += amountIn
	e.state.Reserves[to] -= net
	e.state.CoinSeq++
	coin := mint(e.name, e.state.CoinSeq, to, net)
	tx.RecordUndo(func() { e.state = old })
	e.persist(tx, &e.state)
	return Cash{coin}, nil
}

func copyMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
