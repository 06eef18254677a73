// Command hotkeys demonstrates hot-key replication: a Zipf-skewed workload
// (the shape of word2vec negative sampling or frequent knowledge-graph
// entities) runs three times — on relocation-only Lapse, under the adaptive
// controller (Config.Adaptive), which picks the keys to replicate online from
// the accesses it observes, and with the Zipf head replicated statically
// (Config.Replicate), the way an application replicates a hot set it knows
// from its data.
//
// With relocation only, every node constantly reads the same few hot keys
// over the network. With those keys replicated, reads become node-local
// replica hits and the only network traffic is the background sync cycle —
// O(nodes × server shards) messages per sync interval, independent of the
// number of hot keys.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"lapse"
)

const (
	nodes        = 4
	workers      = 2
	numKeys      = 2048
	valueLength  = 8
	opsPerWorker = 2000
	zipfSkew     = 1.5
	// zipfHead is the static hot set: the workload draws key i as the
	// (i+1)-th hottest, so keys 0..zipfHead-1 are its head.
	zipfHead = 32
)

func main() {
	baseline := runWorkload(lapse.Config{})
	fmt.Printf("relocation-only:      remote reads %d, network messages %d\n",
		baseline.RemoteReads, baseline.NetworkMessages)

	adaptive := runWorkload(lapse.Config{Adaptive: true})
	fmt.Printf("adaptive controller:  remote reads %d, replica hits %d, promotions %d\n",
		adaptive.RemoteReads, adaptive.ReplicaHits, adaptive.AdaptPromotions)

	head := make([]lapse.Key, zipfHead)
	for i := range head {
		head[i] = lapse.Key(i)
	}
	static := runWorkload(lapse.Config{Replicate: head})
	fmt.Printf("replicated head %d:   remote reads %d, replica hits %d, sync messages %d\n",
		zipfHead, static.RemoteReads, static.ReplicaHits, static.ReplicaSyncMessages)
}

// runWorkload runs the Zipf workload on a cluster with cfg's management
// settings and returns its stats.
func runWorkload(cfg lapse.Config) lapse.Stats {
	cfg.Nodes, cfg.WorkersPerNode = nodes, workers
	cfg.Keys, cfg.ValueLength = numKeys, valueLength
	cfg.Network = lapse.DefaultNetwork()
	cl, err := lapse.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	err = cl.Run(func(w *lapse.Worker) error {
		rng := rand.New(rand.NewSource(int64(w.ID()) + 42))
		zipf := rand.NewZipf(rng, zipfSkew, 1, numKeys-1)
		buf := make([]float32, valueLength)
		delta := make([]float32, valueLength)
		for i := range delta {
			delta[i] = 0.01
		}
		for op := 0; op < opsPerWorker; op++ {
			k := []lapse.Key{lapse.Key(zipf.Uint64())}
			if err := w.Pull(k, buf); err != nil {
				return err
			}
			if op%4 == 0 {
				if err := w.Push(k, delta); err != nil {
					return err
				}
			}
		}
		return w.WaitAll()
	})
	if err != nil {
		log.Fatal(err)
	}
	return cl.Stats()
}
