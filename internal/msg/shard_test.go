package msg

import (
	"testing"

	"lapse/internal/kv"
)

func TestShardOfKeyIsGlobalAndStable(t *testing.T) {
	if got := ShardOfKey(7, 1); got != 0 {
		t.Fatalf("single-shard mapping = %d, want 0", got)
	}
	for _, shards := range []int{2, 4, 7} {
		for k := kv.Key(0); k < 100; k++ {
			s := ShardOfKey(k, shards)
			if s != int(uint64(k)%uint64(shards)) {
				t.Fatalf("ShardOfKey(%d, %d) = %d, want interleaved slice k mod S", k, shards, s)
			}
			if s != ShardOfKey(k, shards) {
				t.Fatalf("ShardOfKey(%d, %d) unstable", k, shards)
			}
		}
	}
}

func TestShardOfDemuxRules(t *testing.T) {
	const shards = 4
	cases := []struct {
		m    any
		want int
	}{
		// Key-addressed messages route by first key.
		{&Op{Keys: []kv.Key{6, 10}}, 2},
		{&OpResp{Keys: []kv.Key{7}}, 3},
		{&Localize{Keys: []kv.Key{5}}, 1},
		{&RelocInstruct{Keys: []kv.Key{9}}, 1},
		{&RelocTransfer{Keys: []kv.Key{8}}, 0},
		{&SspSync{Keys: []kv.Key{3, 6}}, 3}, // by first key; need not be pure
		{&Manage{Keys: []kv.Key{6}}, 2},
		{&Manage{}, 0},
		{&ReplicaRefresh{Origin: 1, Keys: []kv.Key{7}}, 3},
		{&ReplicaRefresh{Origin: 1, Ack: 5, Keys: []kv.Key{6}, Vals: []float32{1}}, 2},
		{&ReplicaRefresh{}, 0},
		{&ReplicaSync{Origin: 1, Seq: 4, Keys: []kv.Key{6, 10}}, 2},
		{&ReplicaRefresh{Origin: 0, Ack: 4, Keys: []kv.Key{7}}, 3},
		// Zero-key and node-level messages pin to shard 0.
		{&Op{}, 0},
		{&ReplicaSync{}, 0},
		{&SspClock{Worker: 1}, 0},
		{&Barrier{Seq: 3}, 0},
		{&Block{ID: 2}, 0},
	}
	for _, c := range cases {
		if got := ShardOf(c.m, shards); got != c.want {
			t.Fatalf("ShardOf(%T%+v) = %d, want %d", c.m, c.m, got, c.want)
		}
	}
}

func TestCheckShardPure(t *testing.T) {
	const shards = 4
	if err := CheckShardPure(&Op{Keys: []kv.Key{2, 6, 10}}, shards); err != nil {
		t.Fatalf("pure Op rejected: %v", err)
	}
	if err := CheckShardPure(&Op{Keys: []kv.Key{2, 3}}, shards); err == nil {
		t.Fatal("mixed-shard Op accepted")
	}
	if err := CheckShardPure(&Manage{Keys: []kv.Key{2, 3}}, shards); err == nil {
		t.Fatal("mixed-shard Manage accepted")
	}
	if err := CheckShardPure(&ReplicaRefresh{Keys: []kv.Key{2, 3}}, shards); err == nil {
		t.Fatal("mixed-shard ReplicaRefresh drop accepted")
	}
	if err := CheckShardPure(&ReplicaRefresh{Ack: 5, Keys: []kv.Key{2, 3}, Vals: []float32{1, 2}}, shards); err == nil {
		t.Fatal("mixed-shard ReplicaRefresh accepted")
	}
	if err := CheckShardPure(&ReplicaSync{Keys: []kv.Key{2, 3}, Vals: []float32{1, 2}}, shards); err == nil {
		t.Fatal("mixed-shard ReplicaSync accepted")
	}
	if err := CheckShardPure(&ReplicaRefresh{Keys: []kv.Key{2, 6}, Vals: []float32{1, 2}}, shards); err != nil {
		t.Fatalf("pure ReplicaRefresh rejected: %v", err)
	}
	// SspSync carries no purity requirement.
	if err := CheckShardPure(&SspSync{Keys: []kv.Key{2, 3}}, shards); err != nil {
		t.Fatalf("SspSync flagged: %v", err)
	}
	// With one shard everything is trivially pure.
	if err := CheckShardPure(&Op{Keys: []kv.Key{2, 3}}, 1); err != nil {
		t.Fatalf("single-shard Op flagged: %v", err)
	}
}

// TestShardOfWalksEveryKind walks every wire kind: a kind that names keys
// demuxes to its first key's shard, and — SspSync aside, whose request and
// reply only need to agree — must be shard-pure; one that names none goes to
// shard 0. A new kind fails here until it is given its rule.
func TestShardOfWalksEveryKind(t *testing.T) {
	const shards = 4
	pure, mixed := []kv.Key{6, 10}, []kv.Key{6, 7} // 6 and 10 are shard 2
	build := map[Kind]func(keys []kv.Key) any{
		KindOp:             func(keys []kv.Key) any { return &Op{Keys: keys} },
		KindOpResp:         func(keys []kv.Key) any { return &OpResp{Keys: keys} },
		KindLocalize:       func(keys []kv.Key) any { return &Localize{Keys: keys} },
		KindRelocInstruct:  func(keys []kv.Key) any { return &RelocInstruct{Keys: keys} },
		KindRelocTransfer:  func(keys []kv.Key) any { return &RelocTransfer{Keys: keys} },
		KindSspSync:        func(keys []kv.Key) any { return &SspSync{Keys: keys} },
		KindManage:         func(keys []kv.Key) any { return &Manage{Keys: keys} },
		KindReplicaSync:    func(keys []kv.Key) any { return &ReplicaSync{Keys: keys} },
		KindReplicaRefresh: func(keys []kv.Key) any { return &ReplicaRefresh{Keys: keys} },
		KindSspClock:       func([]kv.Key) any { return &SspClock{} },
		KindBarrier:        func([]kv.Key) any { return &Barrier{} },
		KindBlock:          func([]kv.Key) any { return &Block{} },
	}
	keyless := map[Kind]bool{KindSspClock: true, KindBarrier: true, KindBlock: true}
	for kind := KindOp; kind <= KindManage; kind++ {
		mk, ok := build[kind]
		if !ok {
			t.Fatalf("%v: no demux rule checked", kind)
		}
		m := mk(pure)
		if got := Kind(Encode(m)[0]); got != kind {
			t.Fatalf("%v: the walk built a %v", kind, got)
		}
		want := ShardOfKey(pure[0], shards)
		if keyless[kind] {
			want = 0
		}
		if got := ShardOf(m, shards); got != want {
			t.Errorf("ShardOf(%v) = %d, want %d", kind, got, want)
		}
		if err := CheckShardPure(m, shards); err != nil {
			t.Errorf("%v: pure message rejected: %v", kind, err)
		}
		if err := CheckShardPure(mk(mixed), shards); (err == nil) != (keyless[kind] || kind == KindSspSync) {
			t.Errorf("%v: CheckShardPure on mixed shards = %v", kind, err)
		}
	}
}
