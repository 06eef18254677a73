package store

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"lapse/internal/kv"
)

// stores returns the store implementations over one layout, each run as a
// subtest of every behavioural test.
func stores(layout kv.Layout) map[string]*Dense {
	return map[string]*Dense{"dense": NewDense(layout, 16)}
}

func TestStoreBasicOps(t *testing.T) {
	layout := kv.NewUniformLayout(8, 3)
	for name, s := range stores(layout) {
		t.Run(name, func(t *testing.T) {
			buf := make([]float32, 3)
			if s.Read(2, buf) {
				t.Fatal("Read on empty store returned true")
			}
			if s.Add(2, []float32{1, 1, 1}) {
				t.Fatal("Add on absent key returned true")
			}
			s.Set(2, []float32{1, 2, 3})
			if !s.Read(2, buf) {
				t.Fatal("Read after Set returned false")
			}
			if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
				t.Fatalf("Read = %v, want [1 2 3]", buf)
			}
			if !s.Add(2, []float32{10, 10, 10}) {
				t.Fatal("Add on present key returned false")
			}
			s.Read(2, buf)
			if buf[0] != 11 || buf[1] != 12 || buf[2] != 13 {
				t.Fatalf("Read after Add = %v, want [11 12 13]", buf)
			}
			got := s.Take(2)
			if got == nil || got[0] != 11 {
				t.Fatalf("Take = %v, want [11 12 13]", got)
			}
			if s.Read(2, buf) || s.Add(2, []float32{1, 1, 1}) {
				t.Fatal("key still present after Take")
			}
			if s.Take(2) != nil {
				t.Fatal("second Take returned non-nil")
			}
		})
	}
}

func TestStoreSetOverwrites(t *testing.T) {
	layout := kv.NewUniformLayout(4, 2)
	for name, s := range stores(layout) {
		t.Run(name, func(t *testing.T) {
			s.Set(1, []float32{5, 6})
			s.Set(1, []float32{7, 8})
			buf := make([]float32, 2)
			s.Read(1, buf)
			if buf[0] != 7 || buf[1] != 8 {
				t.Fatalf("Read = %v, want [7 8]", buf)
			}
		})
	}
}

func TestStoreRangeLayoutLengths(t *testing.T) {
	layout := kv.NewRangeLayout([]kv.Key{3, 2}, []int{2, 5})
	for name, s := range stores(layout) {
		t.Run(name, func(t *testing.T) {
			s.Set(0, []float32{1, 2})
			s.Set(4, []float32{1, 2, 3, 4, 5})
			buf := make([]float32, 5)
			if !s.Read(4, buf) || buf[4] != 5 {
				t.Fatalf("Read = %v", buf)
			}
		})
	}
}

func TestStoreSetLengthMismatchPanics(t *testing.T) {
	layout := kv.NewUniformLayout(4, 2)
	for name, s := range stores(layout) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on wrong value length")
				}
			}()
			s.Set(0, []float32{1, 2, 3})
		})
	}
}

// TestStoreConcurrentAdds verifies per-key atomicity: concurrent cumulative
// pushes must not lose updates (the paper: "lost updates do not occur in PSs
// when updates are cumulative").
func TestStoreConcurrentAdds(t *testing.T) {
	const (
		keys    = 32
		workers = 8
		addsPer = 500
	)
	layout := kv.NewUniformLayout(keys, 2)
	for name, s := range stores(layout) {
		t.Run(name, func(t *testing.T) {
			for k := kv.Key(0); k < keys; k++ {
				s.Set(k, []float32{0, 0})
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < addsPer; i++ {
						k := kv.Key(rng.Intn(keys))
						s.Add(k, []float32{1, 2})
					}
				}(int64(w))
			}
			wg.Wait()
			var total0, total1 float32
			buf := make([]float32, 2)
			for k := kv.Key(0); k < keys; k++ {
				s.Read(k, buf)
				total0 += buf[0]
				total1 += buf[1]
			}
			want := float32(workers * addsPer)
			if total0 != want || total1 != 2*want {
				t.Fatalf("totals = (%v, %v), want (%v, %v)", total0, total1, want, 2*want)
			}
		})
	}
}

// TestStoreConcurrentTakeSet exercises relocation-style churn: keys moving in
// and out under concurrent readers must never yield torn values.
func TestStoreConcurrentTakeSet(t *testing.T) {
	layout := kv.NewUniformLayout(8, 4)
	for name, s := range stores(layout) {
		t.Run(name, func(t *testing.T) {
			for k := kv.Key(0); k < 8; k++ {
				s.Set(k, []float32{1, 1, 1, 1})
			}
			stop := make(chan struct{})
			var readers, churner sync.WaitGroup
			// Churner: repeatedly take and re-insert keys.
			churner.Add(1)
			go func() {
				defer churner.Done()
				rng := rand.New(rand.NewSource(7))
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := kv.Key(rng.Intn(8))
					if v := s.Take(k); v != nil {
						s.Set(k, v)
					}
				}
			}()
			// Readers: values must always be uniform vectors (no tearing).
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func(seed int64) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(seed))
					buf := make([]float32, 4)
					for i := 0; i < 2000; i++ {
						k := kv.Key(rng.Intn(8))
						if s.Read(k, buf) {
							for j := 1; j < 4; j++ {
								if buf[j] != buf[0] {
									t.Errorf("torn read: %v", buf)
									return
								}
							}
						}
					}
				}(int64(r))
			}
			readers.Wait()
			close(stop)
			churner.Wait()
		})
	}
}

// TestStoreQuickReadAfterSet is a property test: Set then Read returns the
// written value for arbitrary keys and values.
func TestStoreQuickReadAfterSet(t *testing.T) {
	layout := kv.NewUniformLayout(64, 3)
	for name, s := range stores(layout) {
		s := s
		t.Run(name, func(t *testing.T) {
			f := func(k uint8, a, b, c float32) bool {
				key := kv.Key(k % 64)
				s.Set(key, []float32{a, b, c})
				buf := make([]float32, 3)
				if !s.Read(key, buf) {
					return false
				}
				return eqf(buf[0], a) && eqf(buf[1], b) && eqf(buf[2], c)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// eqf treats NaN as equal to NaN so quick-generated NaNs don't fail the
// round-trip property.
func eqf(x, y float32) bool { return x == y || (x != x && y != y) }

func BenchmarkDenseRead(b *testing.B) {
	layout := kv.NewUniformLayout(1024, 16)
	s := NewDense(layout, DefaultLatches)
	v := make([]float32, 16)
	for k := kv.Key(0); k < 1024; k++ {
		s.Set(k, v)
	}
	buf := make([]float32, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(kv.Key(i%1024), buf)
	}
}
