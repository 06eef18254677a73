// Package metrics provides the lightweight counters and duration aggregates
// used to instrument the parameter servers. Table 5 of the paper (parameter
// reads, relocations, relocation times) and the communication-overhead
// analyses are regenerated from these counters.
package metrics

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is an atomic event counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an atomic instantaneous value (a size, a level), as opposed to a
// Counter's running total.
type Gauge struct{ v atomic.Int64 }

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Reset zeroes the gauge.
func (g *Gauge) Reset() { g.v.Store(0) }

// GaugeVec is a small vector of gauges indexed by a dense non-negative label
// (a node ID). It grows on first Set of an index; unset slots read as -1 in
// snapshots, so "never reported" stays distinguishable from zero.
type GaugeVec struct {
	mu sync.Mutex
	v  []GaugeVal
}

// Set stores the current value of slot i.
func (g *GaugeVec) Set(i int, n int64) {
	g.mu.Lock()
	for i >= len(g.v) {
		g.v = append(g.v, -1)
	}
	g.v[i] = GaugeVal(n)
	g.mu.Unlock()
}

// Snapshot returns a copy of the slots.
func (g *GaugeVec) Snapshot() []GaugeVal {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.v)
}

// Reset drops every slot.
func (g *GaugeVec) Reset() {
	g.mu.Lock()
	g.v = nil
	g.mu.Unlock()
}

// GaugeVal is a gauge reading inside Totals. Its own type tells readers that
// reflect over Totals (the /metrics exposition, Since) that the field is a
// level, not a running total: it is exported as a gauge and never windowed.
type GaugeVal int64

// ServerStats collects the per-node parameter-server instrumentation the
// experiments report. All fields are safe for concurrent update.
type ServerStats struct {
	// LocalReads counts keys read through the shared-memory fast path.
	LocalReads Counter
	// RemoteReads counts keys read through the network.
	RemoteReads Counter
	// LocalWrites and RemoteWrites count pushed keys analogously.
	LocalWrites  Counter
	RemoteWrites Counter
	// ReadValues counts float32 values read (local + remote), for the
	// MB/s column of Table 4.
	ReadValues Counter
	// Relocations counts keys relocated *to* this node.
	Relocations Counter
	// RelocationTime aggregates per-localize-call relocation times
	// (localize issued until all keys are owned locally, Section 3.2).
	RelocationTime Histogram
	// ServeLatency records the per-message handling time of this shard's
	// server — how long each inbound message held the shard's serving token.
	ServeLatency Histogram
	// QueueWait records how long operations sat on relocation queues before
	// a queue drain applied them.
	QueueWait Histogram
	// QueuedOps counts operations that had to be queued during relocations.
	QueuedOps Counter
	// Forwards counts operations forwarded by this node (as home), and
	// DoubleForwards those re-forwarded due to stale location caches.
	Forwards       Counter
	DoubleForwards Counter
	// CacheHits/CacheMisses count location-cache routing outcomes.
	CacheHits   Counter
	CacheMisses Counter
	// SyncWaits counts stale-PS reads that blocked on the staleness bound.
	SyncWaits Counter
	// ReplicaHits counts reads of replicated hot keys served from the
	// node-local replica (shared-memory, no network).
	ReplicaHits Counter
	// ReplicaSyncMessages counts ReplicaSync/ReplicaRefresh messages sent
	// by the background replica sync cycle of this shard's keys (a lease
	// owner's ReplicaRefresh counts as a LeaseRevoke instead).
	ReplicaSyncMessages Counter
	// ReplicaSyncTime records the duration of each of this shard's replica
	// sync rounds (pending-delta drain plus refresh assembly and dispatch).
	ReplicaSyncTime Histogram
	// AdaptPromotions, AdaptDemotions, and AdaptRelocations count the
	// transitions the adaptive controller executed with this node as the
	// key's home: promotions into replication, demotions back to static
	// ownership, and controller-initiated relocations.
	AdaptPromotions  Counter
	AdaptDemotions   Counter
	AdaptRelocations Counter
	// AdaptManaged is the size of this shard's classifier managed set.
	// AdaptReportEvidence[o] is the evidence — observations in origin o's
	// tracker window — behind o's latest report to this shard's classifier,
	// and AdaptReportAge[o] that report's age in controller epochs. Together
	// they answer why a key was not replicated: an origin whose evidence is
	// below the promotion floor is set aside, and an old report means the
	// origin's window has not changed since.
	AdaptManaged        Gauge
	AdaptReportEvidence GaugeVec
	AdaptReportAge      GaugeVec
	// ServingHits and ServingMisses count read-only pulls served from (or
	// missing) the node's lease-based serving cache.
	ServingHits   Counter
	ServingMisses Counter
	// LeaseGrants counts serving-cache leases this node granted as an owner;
	// LeaseRevokes counts the lease coherence messages (ReplicaRefresh) it
	// sent its holders, both forms: refreshes after writes, drops on
	// relocations and promotions.
	// At the holder, LeaseRefreshes counts cache entries overwritten in place
	// by a refresh and LeaseInvalidations entries actually dropped (drops
	// received, and the node's own pushes whose ack did not vouch for the
	// entry).
	LeaseGrants        Counter
	LeaseRevokes       Counter
	LeaseRefreshes     Counter
	LeaseInvalidations Counter
}

// ServerStats and Totals are declared once each and paired by field name: a
// Counter sums into an int64, a Histogram merges into a HistSnapshot, a Gauge
// or GaugeVec — levels, which do not add up — is listed per shard. Reset, Sum
// and Since walk the fields by reflection; all three run when a snapshot is
// taken (a scrape, a measurement window's edge), never on an operation path.

// Reset zeroes all counters and aggregates.
func (s *ServerStats) Reset() {
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Addr().Interface().(interface{ Reset() }).Reset()
	}
}

// Sum aggregates a set of per-node stats into cluster totals. Histogram
// aggregates are merged bucket-wise into snapshots.
func Sum(nodes []*ServerStats) Totals {
	var t Totals
	tv := reflect.ValueOf(&t).Elem()
	for _, s := range nodes {
		sv := reflect.ValueOf(s).Elem()
		for i := 0; i < sv.NumField(); i++ {
			dst := tv.FieldByName(sv.Type().Field(i).Name).Addr().Interface()
			switch f := sv.Field(i).Addr().Interface().(type) {
			case *Counter:
				*dst.(*int64) += f.Load()
			case *Histogram:
				dst.(*HistSnapshot).Merge(f.Snapshot())
			case *Gauge:
				d := dst.(*[]GaugeVal)
				*d = append(*d, GaugeVal(f.Load()))
			case *GaugeVec:
				d := dst.(*[][]GaugeVal)
				*d = append(*d, f.Snapshot())
			}
		}
	}
	return t
}

// Totals is the cluster-wide aggregate of ServerStats. Counters are summed
// and histograms merged. Gauges (GaugeVal) are levels that do not add up, so
// they are kept per shard: entry i belongs to the i-th ServerStats summed
// (node-major, see server.Group.Stats), and the report gauges hold one slot
// per origin node within it.
type Totals struct {
	LocalReads, RemoteReads   int64
	LocalWrites, RemoteWrites int64
	ReadValues                int64
	Relocations               int64
	QueuedOps                 int64
	Forwards, DoubleForwards  int64
	CacheHits, CacheMisses    int64
	SyncWaits                 int64
	ReplicaHits               int64
	ReplicaSyncMessages       int64
	AdaptPromotions           int64
	AdaptDemotions            int64
	AdaptRelocations          int64
	AdaptManaged              []GaugeVal
	AdaptReportEvidence       [][]GaugeVal
	AdaptReportAge            [][]GaugeVal
	ServingHits               int64
	ServingMisses             int64
	LeaseGrants               int64
	LeaseRevokes              int64
	LeaseRefreshes            int64
	LeaseInvalidations        int64
	// RelocationTime, ServeLatency, and QueueWait are the cluster-merged
	// histogram snapshots of the corresponding ServerStats aggregates.
	// Mean/min/max/quantiles are all derived from the buckets, so windowed
	// views (Since) carry correctly windowed extrema too.
	RelocationTime  HistSnapshot
	ServeLatency    HistSnapshot
	QueueWait       HistSnapshot
	ReplicaSyncTime HistSnapshot
}

// TotalReads returns local + remote + replica key reads.
func (t Totals) TotalReads() int64 { return t.LocalReads + t.RemoteReads + t.ReplicaHits }

// Since returns the totals accumulated after base was captured: every
// additive counter is differenced and every histogram is windowed
// bucket-wise, so derived statistics (means, extrema, quantiles) describe
// only the window — a warmed-up measurement window is not polluted by
// ramp-up outliers. Gauges are levels and keep their current reading.
func (t Totals) Since(base Totals) Totals {
	d := t
	dv, bv := reflect.ValueOf(&d).Elem(), reflect.ValueOf(&base).Elem()
	for i := 0; i < dv.NumField(); i++ {
		switch f := dv.Field(i).Addr().Interface().(type) {
		case *int64:
			*f -= bv.Field(i).Int()
		case *HistSnapshot:
			*f = f.Sub(*bv.Field(i).Addr().Interface().(*HistSnapshot))
		}
	}
	return d
}

// RelocationCalls returns the number of timed localize calls.
func (t Totals) RelocationCalls() int64 { return t.RelocationTime.Count() }

// MeanRelocationTime returns the mean per-localize relocation time.
func (t Totals) MeanRelocationTime() time.Duration { return t.RelocationTime.Mean() }
