package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// TestDeclarationDrivesEverything sets every live cell of the fields
// declaration to a distinct value and checks that Snapshot, Sub and the
// Prometheus exposition each account for every field. It reflects over
// the declaration, so a new counter needs no edit here; it fails when a
// field has a shape one of the walkers does not handle.
func TestDeclarationDrivesEverything(t *testing.T) {
	var c Counters
	next := int64(100)
	store := func(cell reflect.Value) int64 {
		next++
		cell.Addr().Interface().(*atomic.Int64).Store(next)
		return next
	}
	// want maps a field name to the value(s) stored in its cell(s).
	want := map[string][]int64{}
	live := reflect.ValueOf(&c.live).Elem()
	for i := 0; i < live.NumField(); i++ {
		name, f := live.Type().Field(i).Name, live.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			want[name] = []int64{store(f)}
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				want[name] = append(want[name], store(f.Index(j)))
			}
		case reflect.Map:
			next++
			f.Set(reflect.ValueOf(map[string]int64{"k": next}))
			want[name] = []int64{next}
		default:
			t.Fatalf("field %s: kind %s is not a cell, an array of cells or a per-kind map", name, f.Kind())
		}
	}

	s := c.Snapshot()
	sv := reflect.ValueOf(s)
	if sv.NumField() != len(want) {
		t.Fatalf("Snapshot has %d fields, the declaration %d", sv.NumField(), len(want))
	}
	var expo strings.Builder
	if err := WritePrometheus(&expo, s, LatencySummary{}); err != nil {
		t.Fatal(err)
	}
	samples := "\n" + expo.String()
	hasSample := func(sample string) {
		t.Helper()
		if !strings.Contains(samples, "\n"+sample+"\n") {
			t.Errorf("exposition has no sample %q", sample)
		}
	}
	for name, vals := range want {
		f := sv.FieldByName(name)
		prom := "repro_" + snakeCase(name)
		switch f.Kind() {
		case reflect.Int64:
			if f.Int() != vals[0] {
				t.Errorf("Snapshot().%s = %d, want %d", name, f.Int(), vals[0])
			}
			if isPeak(name) {
				hasSample(fmt.Sprintf("%s %d", prom, vals[0]))
			} else {
				hasSample(fmt.Sprintf("%s_total %d", prom, vals[0]))
			}
		case reflect.Array:
			var total int64
			for j, v := range vals {
				if got := f.Index(j).Int(); got != v {
					t.Errorf("Snapshot().%s[%d] = %d, want %d", name, j, got, v)
				}
				total += v
			}
			hasSample(fmt.Sprintf(`%s_bucket{le="+Inf"} %d`, prom, total))
			for _, suffix := range []string{"_sum ", "_count "} {
				if !strings.Contains(samples, "\n"+prom+suffix) {
					t.Errorf("exposition has no %s%s sample", prom, suffix)
				}
			}
		case reflect.Map:
			if got := f.Interface().(map[string]int64); len(got) != 1 || got["k"] != vals[0] {
				t.Errorf("Snapshot().%s = %v, want k=%d", name, got, vals[0])
			}
			hasSample(fmt.Sprintf(`%s_total{kind="k"} %d`, prom, vals[0]))
		default:
			t.Errorf("Snapshot().%s has kind %s", name, f.Kind())
		}
	}

	if d := s.Sub(Snapshot{}); !reflect.DeepEqual(d, s) {
		t.Errorf("s.Sub(zero) = %+v, want s = %+v", d, s)
	}
	// Only the peaks survive a self-diff.
	var peaks Snapshot
	pv := reflect.ValueOf(&peaks).Elem()
	for i := 0; i < pv.NumField(); i++ {
		if isPeak(pv.Type().Field(i).Name) {
			pv.Field(i).Set(sv.Field(i))
		}
	}
	if d := s.Sub(s); !reflect.DeepEqual(d, peaks) {
		t.Errorf("s.Sub(s) = %+v, want only the peaks %+v", d, peaks)
	}
}

// TestNilCountersIsOff calls every exported method on a nil *Counters
// with zero-value arguments: none may panic and all must return zero.
func TestNilCountersIsOff(t *testing.T) {
	v := reflect.ValueOf((*Counters)(nil))
	for i := 0; i < v.NumMethod(); i++ {
		name, m := v.Type().Method(i).Name, v.Method(i)
		args := make([]reflect.Value, m.Type().NumIn())
		for j := range args {
			args[j] = reflect.Zero(m.Type().In(j))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("nil.%s panicked: %v", name, r)
				}
			}()
			for _, out := range m.Call(args) {
				if !out.IsZero() {
					t.Errorf("nil.%s returned %v, want the zero value", name, out)
				}
			}
		}()
	}
}
