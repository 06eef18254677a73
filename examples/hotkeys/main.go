// Command hotkeys demonstrates the hot-key replication subsystem: a
// Zipf-skewed workload (the shape of word2vec negative sampling or frequent
// knowledge-graph entities) runs once on relocation-only Lapse and once
// with the hottest keys replicated via Config.Replicate.
//
// With relocation only, every node constantly reads the same few hot keys
// over the network. With those keys replicated, reads become node-local
// replica hits and the only network traffic is the background sync cycle —
// O(nodes × server shards) messages per sync interval, independent of the
// number of hot keys. The program also shows Cluster.HotKeys, the sampling
// tracker that identifies which keys are worth replicating.
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
	topK         = 32
)

func main() {
	// Pass 1: relocation-only, to measure the skew and find the hot keys.
	baseline, hot := runWorkload(nil)
	fmt.Printf("relocation-only: remote reads %d, network messages %d\n",
		baseline.RemoteReads, baseline.NetworkMessages)
	fmt.Printf("hottest keys (sampled): %v\n", hot[:min(8, len(hot))])

	// Pass 2: same workload with the observed hot set replicated.
	keys := make([]lapse.Key, len(hot))
	for i, h := range hot {
		keys[i] = h.Key
	}
	replicated, _ := runWorkload(keys)
	fmt.Printf("replicated top-%d:  remote reads %d, replica hits %d, sync messages %d\n",
		topK, replicated.RemoteReads, replicated.ReplicaHits, replicated.ReplicaSyncMessages)
	if replicated.RemoteReads > 0 {
		fmt.Printf("remote-read reduction: %dx\n", baseline.RemoteReads/replicated.RemoteReads)
	} else {
		fmt.Println("remote-read reduction: all hot-key reads became local")
	}
}

// runWorkload runs the Zipf workload, optionally with replicate managed by
// replication, and returns the stats plus the tracker's hot-key candidates.
func runWorkload(replicate []lapse.Key) (lapse.Stats, []lapse.HotKey) {
	cl, err := lapse.NewCluster(lapse.Config{
		Nodes:          nodes,
		WorkersPerNode: workers,
		Keys:           numKeys,
		ValueLength:    valueLength,
		Network:        lapse.DefaultNetwork(),
		Replicate:      replicate,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	err = cl.Run(func(w *lapse.Worker) error {
		rng := rand.New(rand.NewSource(int64(w.ID()) + 42))
		// Key i is the (i+1)-th hottest: the hot set is the lowest keys.
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
	return cl.Stats(), cl.HotKeys(topK)
}
