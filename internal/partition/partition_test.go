package partition

import (
	"testing"
	"testing/quick"

	"lapse/internal/kv"
)

func TestRangeCoversAllKeys(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 8} {
		for _, keys := range []kv.Key{1, 7, 8, 100, 1001} {
			if int(keys) < nodes {
				continue
			}
			p := NewRange(keys, nodes)
			counts := make([]int, nodes)
			prev := -1
			for k := kv.Key(0); k < keys; k++ {
				n := p.NodeOf(k)
				if n < 0 || n >= nodes {
					t.Fatalf("NodeOf(%d) = %d with %d nodes", k, n, nodes)
				}
				if n < prev {
					t.Fatalf("range partition not monotone: key %d -> node %d after node %d", k, n, prev)
				}
				prev = n
				counts[n]++
			}
			minC, maxC := counts[0], counts[0]
			for _, c := range counts {
				if c < minC {
					minC = c
				}
				if c > maxC {
					maxC = c
				}
			}
			if maxC-minC > 1 {
				t.Fatalf("nodes=%d keys=%d: unbalanced ranges %v", nodes, keys, counts)
			}
		}
	}
}

func TestRangeOfMatchesNodeOf(t *testing.T) {
	f := func(keysRaw uint16, nodesRaw uint8) bool {
		nodes := int(nodesRaw%8) + 1
		keys := kv.Key(keysRaw%2000) + kv.Key(nodes)
		p := NewRange(keys, nodes)
		for node := 0; node < nodes; node++ {
			lo, hi := p.RangeOf(node)
			if lo >= hi {
				return false
			}
			for k := lo; k < hi; k++ {
				if p.NodeOf(k) != node {
					return false
				}
			}
		}
		// Ranges must tile [0, keys).
		_, hiLast := p.RangeOf(nodes - 1)
		lo0, _ := p.RangeOf(0)
		return lo0 == 0 && hiLast == keys
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeOutOfBoundsPanics(t *testing.T) {
	p := NewRange(10, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.NodeOf(10)
}
