// Package adaptive decides, online and per key, which parameter-management
// technique a key should be under: relocation to the node that dominates its
// accesses, replication when it is hot everywhere, or plain static placement
// when it is cold. The paper manages hot keys by a statically chosen
// technique (replication for a designated hot set, relocation for the rest)
// and names the per-key combination of both as future work; this package is
// that controller.
//
// The controller runs on evidence, not on time. A node's access tracker
// (replication.Tracker) keeps an exponentially decayed window that closes
// after a fixed number of recorded observations, however long they took to
// arrive: a worker on the shared-memory fast path fills it in milliseconds,
// a worker waiting 600 µs for every access in seconds, and both are judged
// on the same few thousand observations. Fast-path accesses are sampled;
// slow-path accesses — the ones that wait for the network, and the ones the
// controller exists to remove — are recorded one by one.
//
// Nothing is compared raw across nodes. A window says how a node's accesses
// are spread, not how many it issues: the home node reaches its keys through
// memory while a remote node is capped by the round-trip time, a gap of
// several orders of magnitude. Each origin's counts are read relative to
// that origin's own waiting — the accesses it currently makes over the slow
// path. A key accounting for a meaningful share (interestShare) of an
// origin's waiting, on enough observations (hotCount), marks the origin as
// interested; two interested origins mean replicate, a single one that
// holds the key's demand alone means relocate to it. Because every key made
// local leaves the waiting, the keys that remain stand out the more the
// fewer they are: a skewed tail keeps being worked off — as deep as its keys
// still gather hotCount observations in a window — while a uniform workload,
// every key the same small part of the waiting, never starts.
//
// The machinery splits in two. A lightweight per-node reporter (run every
// Tick by internal/core's per-node background loop) rolls the node's tracker
// and, when the window changed, sends each home node a report of the keys it
// homes. The Classifier lives at the home — one instance per server shard, so
// every decision executes on the shard goroutine that owns the key — and
// turns the latest report of every node into transition decisions. A report
// stays in force until its origin replaces it; origins that fall silent age
// out at the tracker, which then retracts. A classifier demotes only keys it
// promoted itself: a statically replicated key is pinned.
//
// Hysteresis keeps decisions stable. Winning a key takes hotCount recorded
// observations and interestShare; keeping it takes any recent sign of use
// above a share four times smaller (ColdCount, ColdShare). A key is cold
// only on evidence of absence — a window too short to have shown it, or a
// report cut short above the cold share, proves nothing, and neither
// demotes a key nor takes it away from its owner. A key that just
// transitioned is immune for minDwellTicks epochs, and a replicated key is
// demoted only after staying cold for coldStreakEpochs consecutive epochs.
// The window's decay supplies the rest: counts halve at a close and never
// reset, so a key hot in alternating phases never reads cold, and a flipping
// hot set settles into one transition per key instead of one per flip (the
// oscillation bound pinned by TestClassifierOscillationBound).
package adaptive

import (
	"fmt"
	"slices"
	"time"

	"lapse/internal/kv"
)

// The controller's thresholds. They are constants: one set of values is meant
// to work across workloads and network latencies, so there is nothing to
// tune.
const (
	// Tick is the controller period: every Tick, each node rolls its tracker
	// window and, if it changed, reports it to the home nodes. It is the
	// unit of minDwellTicks and coldStreakEpochs, and the pace at which
	// windows are looked at, not the length of a window: how much evidence a
	// decision rests on is fixed by replication.WindowObservations, so a
	// shorter tick reacts sooner without judging on less.
	Tick = 5 * time.Millisecond
	// hotCount is the evidence floor of a promotion, in recorded
	// observations: an origin is interested in a key only if at least
	// hotCount of the observations in its window are of that key. A window
	// holding fewer observations than that in total supports no judgement
	// and its report is set aside. A sampled fast-path observation counts
	// once here, although it stands for several accesses. With sixteen
	// observations behind a key at the interest share, a key of a uniform
	// workload over a thousand remote keys — a fifth of that share, three
	// expected observations — does not reach the floor by chance.
	hotCount = 16
	// ColdCount is the floor below which an origin stops keeping a managed
	// key warm, in estimated accesses, strictly below hotCount so a key
	// hovering between them changes nothing (hysteresis). The ratio of the
	// two also separates the share thresholds (see ColdShare).
	ColdCount = 4
	// dominanceShare splits keys with one interested origin into
	// locality-skewed (the origin holds at least this part of the key's
	// shares summed over all origins: relocate to it) and hot in several
	// places (it does not: replicate).
	dominanceShare = 0.75
	// interestShare is the part of an origin's waiting — the accesses it
	// currently makes over the slow path — that a key must account for to
	// interest the origin (see Share). A key with two or more interested
	// origins is replicated however different the origins' access rates
	// are: a remote origin capped by round-trip latency and the home on the
	// in-memory fast path are each judged against their own window. Half a
	// percent admits, under Zipf(1.3) over 2048 keys, the top twenty keys at
	// first and, as they leave the waiting, the next hundred or so; a
	// uniform workload (every remote key ~0.1 % of the waiting) is left
	// untouched.
	interestShare = 0.005
	// ColdShare is the share of an origin's window below which the origin
	// stops keeping a managed key warm: interestShare scaled by
	// ColdCount/hotCount, so the two evidence floors and the two share
	// thresholds are separated alike. Origins need not report keys below it.
	ColdShare = interestShare * ColdCount / hotCount
	// matureEvidence is the window evidence at which a key exactly at
	// interestShare carries hotCount observations: only from there on can a
	// key's absence from the window say the origin has no demand for it.
	// At 3,200 it stays below replication.WindowObservations, so a window
	// reaches it before it first closes.
	matureEvidence = hotCount / interestShare
	// minDwellTicks is the minimum number of epochs between transitions of
	// one key.
	minDwellTicks = 2
	// coldStreakEpochs is how many consecutive epochs a replicated key must
	// read cold — no origin holding it above ColdCount and ColdShare, and
	// none whose report could be hiding it — before it is demoted: it goes
	// when its traffic has moved on, not when one window's samples happened
	// to miss it.
	coldStreakEpochs = 8
	// ReportTopK bounds each node's report to its K hottest keys. A report
	// cut short says so (Report.Floor); keys missing from it are unknown,
	// not cold.
	ReportTopK = 128
)

// Config switches the controller on where a deployment is described by
// options (a non-nil *Config). It has nothing to tune (see the constants
// above).
type Config struct{}

// View is the classifier's window into the live per-key management state of
// the home node it runs on. All callbacks are invoked on the server shard
// goroutine that owns the classifier's keys.
type View struct {
	// Node is the home node the classifier runs on.
	Node int
	// Owner returns the current owner of a key homed here.
	Owner func(k kv.Key) int
	// Replicated reports whether the key is currently replicated.
	Replicated func(k kv.Key) bool
	// Busy reports whether the key has a transition in flight; busy keys are
	// never re-decided.
	Busy func(k kv.Key) bool
}

// ActionKind enumerates the transitions a classifier can request.
type ActionKind uint8

const (
	// ActReplicate promotes the key to replicated management.
	ActReplicate ActionKind = iota
	// ActDemote returns a replicated key to plain ownership at its home.
	ActDemote
	// ActRelocate moves the key to node Dest (the dominant accessor, or the
	// home itself for a cold key stranded elsewhere).
	ActRelocate
)

// Action is one decided transition.
type Action struct {
	Kind ActionKind
	Key  kv.Key
	Dest int // ActRelocate only
	// Detail records the classifier inputs behind the decision (the key's
	// shares, interested-origin count, cold streak length) in a compact
	// human-readable form, for the control-plane trace ledger.
	Detail string
}

// Report is one origin's current evidence window (see replication.Tracker)
// as far as it concerns one classifier: the window's sums and the keys homed
// at the classifier. Waiting and every Counts entry estimate accesses — a
// sampled fast-path observation stands for several — while Evidence and
// every Seen entry count the recorded observations behind those estimates.
// Waiting covers the keys the origin currently reaches over the slow path:
// the traffic it waits for. A key's share (see Share) is the part of that
// waiting it accounts for; the promotion floor (hotCount) applies to Seen,
// so a key is judged on the same number of observations whichever path its
// accesses took and however long they took to arrive.
type Report struct {
	Waiting  float32
	Evidence float32
	// Floor is the access estimate below which the origin left keys out of
	// the report (its cold floors, or the cut to its top K): a key missing
	// from Keys may still have up to this many accesses in the window.
	Floor  float32
	Keys   []kv.Key
	Counts []float32
	Seen   []float32
}

// Share is the part of an origin's waiting that a key with access estimate n
// accounts for — or, for a key the origin reaches locally, would account for
// if it did not: n over the origin's waiting traffic, at most one. Shares
// are relative to what the origin still waits for, not to all it does: each
// key made local leaves the waiting, so the keys that remain stand out the
// more the fewer they are, and a skewed tail keeps being worked off where a
// uniform one (every key the same small part of the waiting) never starts.
func Share(n, waiting float32) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / float64(max(n, waiting))
}

// tally is one reported key: access estimate and recorded observations.
type tally struct{ n, seen float32 }

// report is the stored form of an origin's latest Report.
type report struct {
	waiting, evidence float32
	// provesAbsence: a key missing from the report is known to be cold at
	// the origin — the window is mature and the report reaches down to the
	// cold share.
	provesAbsence bool
	keys          map[kv.Key]tally
}

// Classifier decides transitions for the keys of one (home node, shard).
// It is confined to that shard's server goroutine: Ingest both stores the
// arriving report and classifies, so decisions execute synchronously where
// they are made and a key's dwell clock starts exactly when its transition
// is issued.
type Classifier struct {
	view View
	// reports holds the newest report per origin (nil until the origin's
	// first), replaced wholesale on arrival. A report stays in force until
	// its origin sends the next one: origins report when their window
	// changed, which a latency-capped origin's does far less often than a
	// fast-path one's.
	reports []*report
	// managed tracks keys this classifier has placed under active management,
	// so keys that dropped out of every report are still revisited for
	// demotion. A replicated key outside it was replicated statically and is
	// never demoted.
	managed map[kv.Key]struct{}
	// lastChange is the epoch a key last transitioned, for the dwell gate.
	lastChange map[kv.Key]uint32
	// coldSince is the epoch a replicated key's cold streak began; the key
	// is removed whenever a warm reading is observed.
	coldSince map[kv.Key]uint32
	now       uint32
	// classify scratch, reused across calls.
	seen map[kv.Key]struct{}
	keys []kv.Key
	acts []Action
}

// NewClassifier builds a classifier over view. The Config has nothing to set:
// the thresholds are the package constants.
func NewClassifier(_ Config, view View) *Classifier {
	return &Classifier{
		view:       view,
		managed:    make(map[kv.Key]struct{}),
		lastChange: make(map[kv.Key]uint32),
		coldSince:  make(map[kv.Key]uint32),
		seen:       make(map[kv.Key]struct{}),
	}
}

// Managed returns the size of the managed set.
func (c *Classifier) Managed() int { return len(c.managed) }

// Sufficient reports whether a window holding evidence recorded
// observations can be judged at all: below hotCount no key in it can reach
// the promotion floor, and the report is set aside.
func Sufficient(evidence float32) bool { return evidence >= hotCount }

// ProvesAbsence reports whether a window with these sums shows that a key
// missing from its report is cold at the origin: the window is empty — its
// keys all aged out — or it is mature and the report reaches down to the cold
// floors (with a rounding margin: the origin computed its floor from the same
// two numbers). The reporter owes a classifier a new retraction until one
// does.
func ProvesAbsence(waiting, evidence, floor float32) bool {
	coldFloor := max(ColdCount, ColdShare*float64(waiting))
	return evidence == 0 || evidence >= matureEvidence && float64(floor) <= coldFloor*1.001
}

// Ingest stores a report whose window consists of exactly the listed keys,
// every access of them a recorded observation (see IngestReport).
func (c *Classifier) Ingest(origin int, epoch uint32, keys []kv.Key, counts []float32) []Action {
	var total float32
	for _, n := range counts {
		total += n
	}
	return c.IngestReport(origin, epoch, Report{Waiting: total, Evidence: total, Keys: keys, Counts: counts, Seen: counts})
}

// IngestReport stores origin's report and re-classifies every candidate key,
// returning the transitions to execute now. The report's slices are copied
// (callers pass decode scratch); the returned slice is scratch too, valid
// until the next call. Issued actions immediately start the key's dwell
// clock; the caller executes them synchronously on the same goroutine.
func (c *Classifier) IngestReport(origin int, epoch uint32, rep Report) []Action {
	if epoch > c.now {
		c.now = epoch
	}
	for origin >= len(c.reports) {
		c.reports = append(c.reports, nil)
	}
	r := c.reports[origin]
	if r == nil {
		r = &report{keys: make(map[kv.Key]tally, len(rep.Keys))}
		c.reports[origin] = r
	}
	r.waiting, r.evidence = rep.Waiting, rep.Evidence
	r.provesAbsence = ProvesAbsence(rep.Waiting, rep.Evidence, rep.Floor)
	clear(r.keys)
	for i, k := range rep.Keys {
		if rep.Counts[i] > 0 {
			r.keys[k] = tally{n: rep.Counts[i], seen: rep.Seen[i]}
		}
	}
	return c.classify()
}

// Sweep advances the classifier's epoch clock without ingesting a report and
// re-classifies. Reports arrive only when an origin's window changed, so on
// a home whose keys stopped being accessed the clock would stand still and a
// replicated key would never accumulate the cold streak that demotes it. The
// controller ticker sends each of its own shards with managed keys one
// ManageSweep per epoch it did not report to, to close that edge.
func (c *Classifier) Sweep(epoch uint32) []Action {
	if epoch > c.now {
		c.now = epoch
	}
	return c.classify()
}

// classify walks the candidate keys (everything in a judgeable report plus
// the managed set) in sorted order — determinism first — and applies the
// decision rules.
func (c *Classifier) classify() []Action {
	clear(c.seen)
	keys := c.keys[:0]
	for _, r := range c.reports {
		if r == nil || !Sufficient(r.evidence) {
			continue
		}
		for k := range r.keys {
			if _, dup := c.seen[k]; !dup {
				c.seen[k] = struct{}{}
				keys = append(keys, k)
			}
		}
	}
	for k := range c.managed {
		if _, dup := c.seen[k]; !dup {
			c.seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	c.keys = keys

	acts := c.acts[:0]
	for _, k := range keys {
		if a, ok := c.decide(k); ok {
			acts = append(acts, a)
			c.lastChange[k] = c.now
		}
	}
	c.acts = acts
	return acts
}

// decide applies the decision rules to one key.
func (c *Classifier) decide(k kv.Key) (Action, bool) {
	if c.view.Busy(k) {
		return Action{}, false
	}
	if last, ok := c.lastChange[k]; ok && c.now-last < minDwellTicks {
		return Action{}, false
	}
	// shares sums the key's share over the origins, lead is the interested
	// origin holding the largest one. Shares, not counts, are compared across
	// origins: every window holds the same evidence, so raw counts say how
	// an origin's waiting is spread, not how much of it there is.
	var shares, leadShare float64
	lead, interested, warm, unsure := -1, 0, false, false
	for origin, r := range c.reports {
		if r == nil {
			continue
		}
		t, reported := r.keys[k]
		if !reported && !r.provesAbsence {
			unsure = true // the origin may hold demand its report cannot show
		}
		if !Sufficient(r.evidence) {
			continue // too little evidence to judge: set aside
		}
		share := Share(t.n, r.waiting)
		shares += share
		// An origin is interested when the key has the evidence floor behind
		// it and accounts for a meaningful share of the origin's waiting.
		// Both are relative to the origin's own window, which holds the same
		// amount of evidence whether the origin issues a thousand accesses
		// per tick or ten: a latency-capped remote is judged like the
		// fast-path home.
		if t.seen >= hotCount && share >= interestShare {
			interested++
			if share > leadShare {
				lead, leadShare = origin, share
			}
		}
		// Keeping a key takes less than winning it: any recent sign of use
		// will do. The floor is on the access estimate, which one sampled
		// fast-path observation of a replicated key clears for a window or
		// two, not on recorded observations.
		if t.n >= ColdCount && share >= ColdShare {
			warm = true
		}
	}
	owner := c.view.Owner(k)
	if c.view.Replicated(k) {
		// A key is cold only on evidence of absence: no reporting origin holds
		// it above the cold floors and none could be hiding it. A key this
		// classifier did not promote is pinned.
		if _, promoted := c.managed[k]; warm || unsure || !promoted {
			delete(c.coldSince, k)
			return Action{}, false
		}
		since, streak := c.coldSince[k]
		if !streak {
			c.coldSince[k] = c.now
			return Action{}, false
		}
		if c.now-since < coldStreakEpochs {
			return Action{}, false
		}
		delete(c.coldSince, k)
		return Action{Kind: ActDemote, Key: k,
			Detail: fmt.Sprintf("shares=%.4f streak=%d", shares, c.now-since)}, true
	}
	switch {
	case interested >= 2:
		// Hot at several origins: replication serves every one of them
		// locally.
		c.managed[k] = struct{}{}
		return Action{Kind: ActReplicate, Key: k,
			Detail: fmt.Sprintf("interested=%d shares=%.4f", interested, shares)}, true
	case interested == 1 && (leadShare < dominanceShare*shares ||
		owner != lead && (unsure || owner >= len(c.reports) || c.reports[owner] == nil)):
		// One origin is interested but others hold a real part of the key's
		// demand, or may: a key missing from an immature window, or from a
		// report cut short above the cold share, proves nothing about that
		// origin's demand, and an owner that never reported has not said it
		// can spare the key. The interested origin's need is established
		// either way, and replication serves it without taking the key away
		// from anyone.
		c.managed[k] = struct{}{}
		return Action{Kind: ActReplicate, Key: k,
			Detail: fmt.Sprintf("interested=1 share=%.4f@%d shares=%.4f unsure=%t", leadShare, lead, shares, unsure)}, true
	case interested == 1 && owner != lead:
		// Locality-skewed: the interested origin dominates and every other
		// reporting origin's window confirms it. Relocate to it.
		c.managed[k] = struct{}{}
		return Action{Kind: ActRelocate, Key: k, Dest: lead,
			Detail: fmt.Sprintf("share=%.4f@%d shares=%.4f", leadShare, lead, shares)}, true
	case interested == 1:
		// Settled with the one origin that wants it.
	case !warm && !unsure && owner != c.view.Node:
		c.managed[k] = struct{}{}
		return Action{Kind: ActRelocate, Key: k, Dest: c.view.Node,
			Detail: fmt.Sprintf("cold shares=%.4f owner=%d", shares, owner)}, true
	case !warm && owner == c.view.Node:
		// Settled: cold, unreplicated, home-owned. Stop revisiting it.
		delete(c.managed, k)
	}
	return Action{}, false
}
