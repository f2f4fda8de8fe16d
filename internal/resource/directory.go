package resource

import (
	"sort"
	"strings"

	"repro/internal/stable"
	"repro/internal/txn"
)

// Directory is a read-mostly information service. An agent gathering
// information from directories stores the results in strongly reversible
// objects; such steps need *no* compensating operations at all, the
// scenario motivating the optimized rollback (§4.3 end, §4.4.1).
type Directory struct {
	base
	state directoryState
}

type directoryState struct {
	Data map[string]string
}

var _ Resource = (*Directory)(nil)

// NewDirectory creates or re-loads the directory named name.
func NewDirectory(store stable.Store, name string) (*Directory, error) {
	d := &Directory{base: base{name: name, kind: "directory", typ: typeDirectory, store: store}}
	ok, err := d.load(&d.state)
	if err != nil {
		return nil, err
	}
	if !ok {
		d.state = directoryState{Data: make(map[string]string)}
	}
	return d, nil
}

// Put stores value under key.
func (d *Directory) Put(tx *txn.Tx, key, value string) error {
	if err := d.lockTx(tx); err != nil {
		return err
	}
	old, had := d.state.Data[key]
	d.state.Data[key] = value
	tx.RecordUndo(func() {
		if had {
			d.state.Data[key] = old
		} else {
			delete(d.state.Data, key)
		}
	})
	d.persist(tx, &d.state)
	return nil
}

// Lookup returns the value stored under key.
func (d *Directory) Lookup(tx *txn.Tx, key string) (string, bool, error) {
	if err := d.lockTx(tx); err != nil {
		return "", false, err
	}
	v, ok := d.state.Data[key]
	return v, ok, nil
}

// Search returns all key=value pairs whose key has the given prefix, in
// key order.
func (d *Directory) Search(tx *txn.Tx, prefix string) ([]string, error) {
	if err := d.lockTx(tx); err != nil {
		return nil, err
	}
	var out []string
	for k, v := range d.state.Data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k+"="+v)
		}
	}
	sort.Strings(out)
	return out, nil
}
