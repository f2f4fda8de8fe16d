package resource

import (
	"fmt"
	"sort"

	"repro/internal/wire"
)

// Coin is one digital coin (Chaum-style digital cash, the paper's §3.2
// example). Compensating a payment returns coins of equal total value but
// *different serial numbers* — an equivalent, not identical, state — which
// is why cash is a weakly reversible object (§4.1).
type Coin struct {
	Serial   string
	Currency string
	Value    int64 // smallest currency unit (cents)
}

// Cash is a multiset of coins. It travels in an agent's data space in its
// binary form (wire.TagBinary): a shifted count (0 nil, n+1 n coins), then
// each coin's Serial, Currency and Value (a signed varint).
type Cash []Coin

// MarshalBinary encodes c in its binary form.
func (c Cash) MarshalBinary() ([]byte, error) {
	if c == nil {
		return []byte{0}, nil
	}
	buf := wire.AppendUvarint(make([]byte, 0, 1+24*len(c)), uint64(len(c))+1)
	for _, coin := range c {
		buf = wire.AppendString(buf, coin.Serial)
		buf = wire.AppendString(buf, coin.Currency)
		buf = wire.AppendVarint(buf, coin.Value)
	}
	return buf, nil
}

// UnmarshalBinary decodes the binary form MarshalBinary writes, and only
// that: anything else is wire.ErrCorrupt and leaves c unchanged.
func (c *Cash) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	var out Cash
	if shifted := r.Uvarint(); shifted > 0 {
		// A coin costs at least two length bytes and a value byte.
		if n := shifted - 1; n > uint64(len(data)/3) {
			r.Fail("%d coins exceed buffer", n)
		} else {
			out = make(Cash, n)
			for i := range out {
				out[i] = Coin{Serial: r.String(), Currency: r.String(), Value: r.Varint()}
			}
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	*c = out
	return nil
}

// Total returns the total value of coins in the given currency.
func (c Cash) Total(currency string) int64 {
	var sum int64
	for _, coin := range c {
		if coin.Currency == currency {
			sum += coin.Value
		}
	}
	return sum
}

// Serials returns the sorted serial numbers, used by tests to prove that
// compensation yields equivalent (not identical) cash.
func (c Cash) Serials() []string {
	out := make([]string, len(c))
	for i, coin := range c {
		out[i] = coin.Serial
	}
	sort.Strings(out)
	return out
}

// Take removes coins totalling exactly amount of the currency from c,
// returning the taken coins and the remainder. Coins are split if needed
// (a split mints a deterministic child serial).
func (c Cash) Take(currency string, amount int64) (taken, rest Cash, err error) {
	if amount < 0 {
		return nil, nil, fmt.Errorf("resource: negative amount %d", amount)
	}
	if c.Total(currency) < amount {
		return nil, nil, ErrInsufficientFunds
	}
	remaining := amount
	for _, coin := range c {
		if coin.Currency != currency || remaining == 0 {
			rest = append(rest, coin)
			continue
		}
		switch {
		case coin.Value <= remaining:
			taken = append(taken, coin)
			remaining -= coin.Value
		default:
			taken = append(taken, Coin{Serial: coin.Serial + ".a", Currency: currency, Value: remaining})
			rest = append(rest, Coin{Serial: coin.Serial + ".b", Currency: currency, Value: coin.Value - remaining})
			remaining = 0
		}
	}
	return taken, rest, nil
}

// mint creates n-th coin for an issuer; serial numbers embed the issuer and
// a monotone counter so freshly minted coins never repeat.
func mint(issuer string, seq uint64, currency string, value int64) Coin {
	return Coin{
		Serial:   fmt.Sprintf("%s-%08d", issuer, seq),
		Currency: currency,
		Value:    value,
	}
}
