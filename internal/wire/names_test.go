package wire

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestNamesRoundTrip: a repeated name is a one-byte reference, an empty
// name never joins the table, a table of many entries finds every name,
// and a reader decodes it all back.
func TestNamesRoundTrip(t *testing.T) {
	names := NewNames()
	defer names.Release()
	var buf []byte
	buf = names.Append(buf, "pay")
	buf = names.Append(buf, "")
	buf = names.Append(buf, "pay")
	if want := []byte{6, 'p', 'a', 'y', 0, 1}; !reflect.DeepEqual(buf, want) {
		t.Fatalf("names = %v, want %v", buf, want)
	}
	var many []string
	for i := 0; i < 100; i++ {
		many = append(many, fmt.Sprintf("n%d", i))
	}
	buf = names.AppendList(buf, many)
	buf = names.AppendList(buf, many) // every one a reference now
	buf = AppendNamedMap(buf, names, map[string][]byte{"pay": {1}, "zz": nil})
	buf = names.AppendList(buf, nil)

	r := NewReader(buf)
	r.StartNames()
	if got := []string{r.Name(), r.Name(), r.Name()}; !reflect.DeepEqual(got, []string{"pay", "", "pay"}) {
		t.Errorf("names = %q", got)
	}
	for pass := 0; pass < 2; pass++ {
		if got := r.NameList(); !reflect.DeepEqual(got, many) {
			t.Errorf("pass %d: list = %q", pass, got)
		}
	}
	if got := r.NamedMap(); !reflect.DeepEqual(got, map[string][]byte{"pay": {1}, "zz": nil}) {
		t.Errorf("map = %v", got)
	}
	if got := r.NameList(); got != nil {
		t.Errorf("empty list = %q, want nil", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if len(buf) > 2*len(many)*3 {
		t.Errorf("%d bytes: the second list was not written as references", len(buf))
	}
}

// TestNamesCanonicalOnly: a reference past the table, a reference before
// any inline name, an inline repeat — also in a table of many entries —
// and a reference that puts map keys out of order are ErrCorrupt;
// StartNames empties the table.
func TestNamesCanonicalOnly(t *testing.T) {
	var big []byte
	for i := 0; i < 40; i++ {
		big = append(big, 4, 'n', byte('a'+i))
	}
	names := func(r *Reader) {
		for r.Err() == nil && len(r.b) > 0 {
			r.Name()
		}
	}
	cases := map[string]struct {
		in   []byte
		read func(r *Reader)
	}{
		"reference past the table":   {[]byte{2, 'a', 3}, names},
		"reference before an inline": {[]byte{1}, names},
		"inline repeat":              {[]byte{2, 'a', 2, 'a'}, names},
		"inline repeat, big table":   {append(append([]byte{}, big...), 4, 'n', 'a'), names},
		"length past end":            {[]byte{8, 'a'}, names},
		"reference breaks key order": {[]byte{2, 'b', 3, 2, 'c', 0, 1, 0}, func(r *Reader) { r.Name(); r.NamedMap() }},
	}
	for name, c := range cases {
		r := NewReader(c.in)
		r.StartNames()
		c.read(r)
		r.EndNames()
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, r.Err())
		}
	}
	r := NewReader([]byte{2, 'a', 2, 'a'})
	r.StartNames()
	r.Name()
	r.StartNames()
	if got := r.Name(); got != "a" || r.Done() != nil {
		t.Errorf("after StartNames: %q, %v", got, r.Err())
	}
}
