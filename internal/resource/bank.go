package resource

import (
	"fmt"

	"repro/internal/stable"
	"repro/internal/txn"
)

// Bank manages accounts on one node. With AllowOverdraft, deposit(x) and
// withdraw(x) commute and histories using only them are sound (§3.2);
// without it, compensating a deposit can fail when the balance dropped in
// the meantime — the paper's compensation-failure example.
type Bank struct {
	base
	state bankState
}

type bankState struct {
	Accounts       map[string]int64
	AllowOverdraft bool
	CoinSeq        uint64
}

var _ Resource = (*Bank)(nil)

// NewBank creates or re-loads the bank named name on the given store.
func NewBank(store stable.Store, name string, allowOverdraft bool) (*Bank, error) {
	b := &Bank{base: base{name: name, kind: "bank", typ: typeBank, store: store}}
	ok, err := b.load(&b.state)
	if err != nil {
		return nil, err
	}
	if !ok {
		b.state = bankState{
			Accounts:       make(map[string]int64),
			AllowOverdraft: allowOverdraft,
		}
	}
	return b, nil
}

// OpenAccount creates an account with the given starting balance.
func (b *Bank) OpenAccount(tx *txn.Tx, acct string, balance int64) error {
	if err := b.lockTx(tx); err != nil {
		return err
	}
	if _, ok := b.state.Accounts[acct]; ok {
		return fmt.Errorf("bank %s: account %q exists", b.name, acct)
	}
	b.state.Accounts[acct] = balance
	tx.RecordUndo(func() { delete(b.state.Accounts, acct) })
	b.persist(tx, &b.state)
	return nil
}

// Balance returns the current balance of acct (read under the lock, so the
// read is serializable with concurrent transactions).
func (b *Bank) Balance(tx *txn.Tx, acct string) (int64, error) {
	if err := b.lockTx(tx); err != nil {
		return 0, err
	}
	bal, ok := b.state.Accounts[acct]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchAccount, acct)
	}
	return bal, nil
}

// Deposit adds amount to acct.
func (b *Bank) Deposit(tx *txn.Tx, acct string, amount int64) error {
	return b.adjust(tx, acct, amount)
}

// Withdraw removes amount from acct, failing with ErrInsufficientFunds if
// the account may not be overdrawn.
func (b *Bank) Withdraw(tx *txn.Tx, acct string, amount int64) error {
	return b.adjust(tx, acct, -amount)
}

func (b *Bank) adjust(tx *txn.Tx, acct string, delta int64) error {
	if err := b.lockTx(tx); err != nil {
		return err
	}
	old, ok := b.state.Accounts[acct]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchAccount, acct)
	}
	if old+delta < 0 && !b.state.AllowOverdraft {
		return fmt.Errorf("%w: account %q has %d, need %d", ErrInsufficientFunds, acct, old, -delta)
	}
	b.state.Accounts[acct] = old + delta
	tx.RecordUndo(func() { b.state.Accounts[acct] = old })
	b.persist(tx, &b.state)
	return nil
}

// Transfer moves amount from one account to another — the paper's example
// of an operation whose compensation is a pure *resource* compensation
// entry: the reverse transfer needs only the two accounts and the amount
// (§4.4.1).
func (b *Bank) Transfer(tx *txn.Tx, from, to string, amount int64) error {
	if amount < 0 {
		return fmt.Errorf("bank %s: negative transfer %d", b.name, amount)
	}
	if err := b.Withdraw(tx, from, amount); err != nil {
		return err
	}
	return b.Deposit(tx, to, amount)
}

// IssueCash withdraws amount from acct and mints coins for the agent's
// wallet. The inverse, RedeemCash, deposits coins back; the coins an agent
// gets back after compensation have fresh serial numbers (§3.2).
func (b *Bank) IssueCash(tx *txn.Tx, acct, currency string, amount int64) (Cash, error) {
	if err := b.Withdraw(tx, acct, amount); err != nil {
		return nil, err
	}
	oldSeq := b.state.CoinSeq
	b.state.CoinSeq++
	tx.RecordUndo(func() { b.state.CoinSeq = oldSeq })
	coin := mint(b.name, b.state.CoinSeq, currency, amount)
	b.persist(tx, &b.state)
	return Cash{coin}, nil
}

// RedeemCash deposits the total value of coins into acct.
func (b *Bank) RedeemCash(tx *txn.Tx, acct, currency string, coins Cash) error {
	return b.Deposit(tx, acct, coins.Total(currency))
}
