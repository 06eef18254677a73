package metrics

import (
	"reflect"
	"testing"
	"time"
)

// The ServerStats → Reset/Sum → Totals → Since triple is hand-maintained
// and has been extended in almost every PR. These reflection walks fail the
// build's tests — with a message naming the offending field — whenever a
// field is added to ServerStats or Totals without being wired into Reset,
// Sum, or Since.

// pokeServerStatsField writes a recognizable nonzero value into field i of s
// and returns a check that reads the matching Totals value.
func pokeServerStatsField(t *testing.T, s *ServerStats, i int) func(tot Totals) (got, want int64) {
	t.Helper()
	f := reflect.TypeOf(s).Elem().Field(i)
	fv := reflect.ValueOf(s).Elem().Field(i).Addr().Interface()
	switch v := fv.(type) {
	case *Counter:
		v.Add(7)
		return func(tot Totals) (int64, int64) {
			tf := reflect.ValueOf(tot).FieldByName(f.Name)
			if !tf.IsValid() || tf.Kind() != reflect.Int64 {
				t.Fatalf("ServerStats.%s (Counter) has no int64 Totals.%s field — add it and wire it into Sum/Since", f.Name, f.Name)
			}
			return tf.Int(), 7
		}
	case *Histogram:
		v.Observe(3 * time.Millisecond)
		return func(tot Totals) (int64, int64) {
			tf := reflect.ValueOf(tot).FieldByName(f.Name)
			if !tf.IsValid() || tf.Type() != reflect.TypeOf(HistSnapshot{}) {
				t.Fatalf("ServerStats.%s (Histogram) has no HistSnapshot Totals.%s field — add it and wire it into Sum/Since", f.Name, f.Name)
			}
			snap := tf.Interface().(HistSnapshot)
			return snap.Count(), 1
		}
	case *Gauge:
		v.Set(7)
		return func(tot Totals) (int64, int64) {
			tf := reflect.ValueOf(tot).FieldByName(f.Name)
			if !tf.IsValid() || tf.Type() != reflect.TypeOf([]GaugeVal(nil)) {
				t.Fatalf("ServerStats.%s (Gauge) has no []GaugeVal Totals.%s field — add it and wire it into Sum", f.Name, f.Name)
			}
			if tf.Len() != 1 {
				t.Fatalf("Totals.%s has %d shard entries after summing one ServerStats, want 1", f.Name, tf.Len())
			}
			return tf.Index(0).Int(), 7
		}
	case *GaugeVec:
		v.Set(2, 7)
		return func(tot Totals) (int64, int64) {
			tf := reflect.ValueOf(tot).FieldByName(f.Name)
			if !tf.IsValid() || tf.Type() != reflect.TypeOf([][]GaugeVal(nil)) {
				t.Fatalf("ServerStats.%s (GaugeVec) has no [][]GaugeVal Totals.%s field — add it and wire it into Sum", f.Name, f.Name)
			}
			row := tf.Index(0).Interface().([]GaugeVal)
			if len(row) != 3 || row[0] != -1 || row[1] != -1 {
				t.Fatalf("Totals.%s[0] = %v after setting slot 2, want [-1 -1 7]", f.Name, row)
			}
			return int64(row[2]), 7
		}
	default:
		t.Fatalf("ServerStats.%s has unhandled type %s — extend the wiring test (and wire the field into Reset/Sum/Since)", f.Name, f.Type)
		return nil
	}
}

// isZeroServerStats reports the first nonzero field of s, if any.
func isZeroServerStats(t *testing.T, s *ServerStats) (string, bool) {
	t.Helper()
	typ := reflect.TypeOf(s).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		fv := reflect.ValueOf(s).Elem().Field(i).Addr().Interface()
		switch v := fv.(type) {
		case *Counter:
			if v.Load() != 0 {
				return f.Name, false
			}
		case *Histogram:
			snap := v.Snapshot()
			if snap.Count() != 0 {
				return f.Name, false
			}
		case *Gauge:
			if v.Load() != 0 {
				return f.Name, false
			}
		case *GaugeVec:
			if len(v.Snapshot()) != 0 {
				return f.Name, false
			}
		default:
			t.Fatalf("ServerStats.%s has unhandled type %s — extend the wiring test", f.Name, f.Type)
		}
	}
	return "", true
}

// TestServerStatsFieldsWired sets each ServerStats field in isolation and
// asserts (a) Reset zeroes it and (b) Sum surfaces it in the matching Totals
// field. A field missed in Reset or Sum, or without a Totals counterpart,
// fails by name.
func TestServerStatsFieldsWired(t *testing.T) {
	typ := reflect.TypeOf(ServerStats{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		s := &ServerStats{}
		check := pokeServerStatsField(t, s, i)
		if got, want := check(Sum([]*ServerStats{s})); got != want {
			t.Errorf("Totals.%s = %d after poking ServerStats.%s, want %d — is the field wired into Sum?", name, got, name, want)
		}
		s.Reset()
		if bad, zero := isZeroServerStats(t, s); !zero {
			t.Errorf("ServerStats.%s nonzero after Reset (poked %s) — is the field wired into Reset?", bad, name)
		}
	}
}

// TestTotalsFieldsWindowedBySince sets each Totals field to 5 in the current
// view and 2 in the base and asserts Since yields 3 — catching any field
// (including histogram snapshots) not differenced in Since. Gauge fields are
// levels: Since must hand the current reading through.
func TestTotalsFieldsWindowedBySince(t *testing.T) {
	typ := reflect.TypeOf(Totals{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var cur, base Totals
		switch f.Type {
		case reflect.TypeOf([]GaugeVal(nil)), reflect.TypeOf([][]GaugeVal(nil)):
			fv := reflect.ValueOf(&cur).Elem().Field(i)
			fv.Set(reflect.MakeSlice(f.Type, 1, 1))
			d := cur.Since(base)
			if got := reflect.ValueOf(d).Field(i); got.Len() != 1 {
				t.Errorf("Totals.%s: Since dropped the gauge reading", f.Name)
			}
			continue
		}
		set := func(tot *Totals, n int64) int64 {
			fv := reflect.ValueOf(tot).Elem().Field(i)
			switch {
			case fv.Kind() == reflect.Int64 && f.Type != reflect.TypeOf(time.Duration(0)):
				fv.SetInt(n)
			case f.Type == reflect.TypeOf(time.Duration(0)):
				fv.SetInt(n)
			case f.Type == reflect.TypeOf(HistSnapshot{}):
				snap := fv.Addr().Interface().(*HistSnapshot)
				snap.Counts[10] = uint64(n)
			default:
				t.Fatalf("Totals.%s has unhandled type %s — extend the wiring test (and wire the field into Since)", f.Name, f.Type)
			}
			return n
		}
		read := func(tot *Totals) int64 {
			fv := reflect.ValueOf(tot).Elem().Field(i)
			if f.Type == reflect.TypeOf(HistSnapshot{}) {
				snap := fv.Addr().Interface().(*HistSnapshot)
				return int64(snap.Counts[10])
			}
			return fv.Int()
		}
		set(&cur, 5)
		set(&base, 2)
		d := cur.Since(base)
		if got := read(&d); got != 3 {
			t.Errorf("Totals.%s: Since = %d, want 3 — is the field wired into Since?", f.Name, got)
		}
	}
}
