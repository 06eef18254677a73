package driver

import (
	"fmt"
	"math/rand"
	"testing"

	"lapse/internal/cluster"
	"lapse/internal/kv"
)

// BenchmarkRemotePull is the round trip kv_remote_tcp and kv_remote_shm
// measure, in-tree: Lapse on two nodes with one worker each over a real
// transport, each worker pulling 4 keys homed on the other node in a closed
// loop. b.N pulls in all, half per worker, so ns/op is the inverse of the
// pair's throughput; allocs/op counts the whole process, both nodes' servers
// and transports included. Sub-benchmarks are named transport/shards; at 4
// shards a pull's keys fan out over the home's shards.
func BenchmarkRemotePull(b *testing.B) {
	const (
		keys   = 2048
		valLen = 16
		batch  = 4
		warmup = 1000 // pulls per worker before the clock starts
	)
	for _, tr := range []string{"tcp", "shm"} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/%d", tr, shards), func(b *testing.B) {
				cl := cluster.New(cluster.Config{Nodes: confNodes, WorkersPerNode: 1, Transport: newConfNet(b, tr, shards)})
				ps := Build(Lapse, cl, kv.NewUniformLayout(keys, valLen), Options{})
				defer func() { cl.Close(); ps.Shutdown() }()
				pulls := func(n int) {
					cl.RunWorkers(func(node, worker int) {
						h := ps.Handle(worker)
						rng := rand.New(rand.NewSource(int64(worker)))
						lo := kv.Key(1-node) * keys / confNodes // the other node's range
						ks := make([]kv.Key, batch)
						buf := make([]float32, batch*valLen)
						for i := worker; i < n; i += confNodes {
							for j := range ks {
								ks[j] = lo + kv.Key(rng.Intn(keys/confNodes))
							}
							if err := h.Pull(ks, buf); err != nil {
								b.Error(err)
								return
							}
						}
					})
				}
				pulls(confNodes * warmup)
				b.ReportAllocs()
				b.ResetTimer()
				pulls(b.N)
			})
		}
	}
}
