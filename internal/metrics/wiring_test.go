package metrics

import (
	"reflect"
	"testing"
	"time"
)

// Reset, Sum and Since walk ServerStats and Totals by reflection, so what is
// still maintained by hand is the two struct declarations. These tests fail —
// with a message naming the offending field — when the declarations stop
// pairing up: a field of a kind the walks do not know, a ServerStats field
// without its Totals counterpart of the matching type, or the reverse.

// totalsType maps a ServerStats field type to the Totals type it lands in.
var totalsType = map[reflect.Type]reflect.Type{
	reflect.TypeOf(Counter{}):   reflect.TypeOf(int64(0)),
	reflect.TypeOf(Histogram{}): reflect.TypeOf(HistSnapshot{}),
	reflect.TypeOf(Gauge{}):     reflect.TypeOf([]GaugeVal(nil)),
	reflect.TypeOf(GaugeVec{}):  reflect.TypeOf([][]GaugeVal(nil)),
}

// TestServerStatsFieldsWired checks the pairing of the declarations, then
// that a value poked into every ServerStats field surfaces in its Totals
// field through Sum and is gone after Reset.
func TestServerStatsFieldsWired(t *testing.T) {
	st, tt := reflect.TypeOf(ServerStats{}), reflect.TypeOf(Totals{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		want, ok := totalsType[f.Type]
		if !ok {
			t.Fatalf("ServerStats.%s has type %s, which Reset/Sum do not handle", f.Name, f.Type)
		}
		if tf, ok := tt.FieldByName(f.Name); !ok || tf.Type != want {
			t.Fatalf("ServerStats.%s (%s) needs a Totals.%s of type %s", f.Name, f.Type, f.Name, want)
		}
	}
	for i := 0; i < tt.NumField(); i++ {
		if _, ok := st.FieldByName(tt.Field(i).Name); !ok {
			t.Fatalf("Totals.%s has no ServerStats field to be summed from", tt.Field(i).Name)
		}
	}

	s := &ServerStats{}
	sv := reflect.ValueOf(s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch f := sv.Field(i).Addr().Interface().(type) {
		case *Counter:
			f.Add(7)
		case *Histogram:
			f.Observe(3 * time.Millisecond)
		case *Gauge:
			f.Set(7)
		case *GaugeVec:
			f.Set(2, 7)
		}
	}
	tot := reflect.ValueOf(Sum([]*ServerStats{s, {}}))
	for i := 0; i < tot.NumField(); i++ {
		name, ok := tt.Field(i).Name, false
		switch f := tot.Field(i).Interface().(type) {
		case int64:
			ok = f == 7
		case HistSnapshot:
			ok = f.Count() == 1
		case []GaugeVal: // one entry per ServerStats summed
			ok = reflect.DeepEqual(f, []GaugeVal{7, 0})
		case [][]GaugeVal: // unset slots read -1
			ok = reflect.DeepEqual(f, [][]GaugeVal{{-1, -1, 7}, nil})
		}
		if !ok {
			t.Errorf("Totals.%s = %v after poking ServerStats.%s", name, tot.Field(i).Interface(), name)
		}
	}
	s.Reset()
	if got, want := Sum([]*ServerStats{s}), Sum([]*ServerStats{{}}); !reflect.DeepEqual(got, want) {
		t.Errorf("after Reset: %+v, want the totals of fresh stats", got)
	}
}

// TestTotalsFieldsWindowedBySince sets every Totals field to 5 in the current
// view and 2 in the base and asserts Since yields 3, histogram snapshots
// bucket-wise. Gauge fields are levels: Since must hand the current reading
// through.
func TestTotalsFieldsWindowedBySince(t *testing.T) {
	fill := func(n int64) (tot Totals) {
		v := reflect.ValueOf(&tot).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i).Addr().Interface().(type) {
			case *int64:
				*f = n
			case *HistSnapshot:
				f.Counts[10] = uint64(n)
			case *[]GaugeVal:
				*f = []GaugeVal{GaugeVal(n)}
			case *[][]GaugeVal:
				*f = [][]GaugeVal{{GaugeVal(n)}}
			default:
				t.Fatalf("Totals.%s has type %s, which Since does not handle", v.Type().Field(i).Name, v.Type().Field(i).Type)
			}
		}
		return tot
	}
	cur := fill(5)
	d := reflect.ValueOf(cur.Since(fill(2)))
	for i := 0; i < d.NumField(); i++ {
		ok := false
		switch f := d.Field(i).Interface().(type) {
		case int64:
			ok = f == 3
		case HistSnapshot:
			ok = f.Counts[10] == 3
		default:
			ok = reflect.DeepEqual(f, reflect.ValueOf(cur).Field(i).Interface())
		}
		if !ok {
			t.Errorf("Totals.%s: Since = %v", d.Type().Field(i).Name, d.Field(i).Interface())
		}
	}
}
