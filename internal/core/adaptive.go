package core

import (
	"fmt"
	"sync/atomic"

	"lapse/internal/adaptive"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/replication"
)

// This file wires the adaptive controller (internal/adaptive) into the
// relocation and replication machinery: the per-node report tick, the
// msg.Manage handlers, and the live per-key transitions between the three
// management states (home/relocated ownership ↔ replication).
//
// All transition state of a key mutates only in the shard(k) handlers of the
// key's home node — Manage messages are key-addressed, so they arrive there —
// which run one at a time under the shard's serving token, on the shard's
// loop or on the transport goroutine that received the message. That
// serializes every step of a transition against the key's operation stream
// and against competing transitions. A key with an entry in
// policyShard.transitioning is mid-transition: the classifier skips it (the
// Busy view). Both transitions hold the key at the home in its relocation
// queue, as an arrival does, and end in the same drain.

// transition kinds.
const (
	transPromote = iota // relocation/static -> replicated
	transDemote         // replicated -> owned at home
)

// transition is the home-side state of one in-flight management transition.
type transition struct {
	kind int
	// acked marks the replicas whose ManageDemoteAck arrived and acksLeft
	// counts those still outstanding (demote only): each replica is counted
	// once, so a duplicate ack cannot end the demotion ahead of another's.
	acked    []bool
	acksLeft int
}

// reportGroup addresses one classifier: Manage messages are key-addressed, so
// a node's report is split per (home node, shard) to keep each message
// shard-pure.
type reportGroup struct{ home, shard int }

// reporter is the report tick's state: the node's epoch clock and the
// messages it reuses from tick to tick (the transport encodes on Send, so a
// message may be refilled as soon as Send returns).
type reporter struct {
	// epoch is the node's controller clock. The ticker advances it; the
	// node's classifiers read it when a report or sweep arrives, so every
	// dwell and cold streak at a home runs on that home's own clock.
	epoch atomic.Uint32
	// groups holds one reusable report per classifier this node ever
	// reported to; live marks those whose last report carried keys, owed
	// those not yet sent a retraction that proves the keys absent (see
	// reportTick).
	groups map[reportGroup]*groupReport
	sweep  msg.Manage
	// reported[s] marks the local shards sent a report this tick: the report
	// carries the clock, so they need no sweep.
	reported []bool
}

type groupReport struct {
	m msg.Manage
	// seen collects the keys' recorded observations, appended to m.Vals
	// behind their access estimates once the group is complete.
	seen       []float32
	live, owed bool
}

// reset empties the report and writes the window's sums at the head of its
// values (see reportOf for the layout).
func (g *groupReport) reset(sum replication.WindowSum) {
	g.m.Keys, g.seen = g.m.Keys[:0], g.seen[:0]
	g.m.Vals = append(g.m.Vals[:0], sum.Waiting, sum.Evidence, sum.Floor)
}

// reportOf reads a ManageReport's Vals — the window's waiting, evidence and
// report floor, the keys' access estimates, the keys' recorded observations —
// back into the classifier's form. ok is false for a malformed report.
func reportOf(m *msg.Manage) (rep adaptive.Report, ok bool) {
	n := len(m.Keys)
	if len(m.Vals) != 3+2*n {
		return rep, false
	}
	return adaptive.Report{Waiting: m.Vals[0], Evidence: m.Vals[1], Floor: m.Vals[2],
		Keys: m.Keys, Counts: m.Vals[3 : 3+n], Seen: m.Vals[3+n:]}, true
}

// reportTick runs every adaptive.Tick on the node's background loop. It
// advances the node's epoch and, when the tracker's window changed since the
// last tick, sends each (home node, shard) group of keys one ManageReport
// (through the node Send path, self-delivered for keys homed here): every key
// that could keep a managed key warm at its home (the classifier's cold
// floors; colder keys read as absent there anyway), with the window's totals.
// A report stays in force at the classifier until the next one replaces it,
// so an unchanged window sends nothing. A classifier this node has no keys
// left for gets a retraction — its last report's first key with a zero count,
// which routes the message to the right shard. If that window cannot prove
// the keys absent (adaptive.ProvesAbsence), the classifier reads every key
// there as unsure, so it gets a second retraction once a window can: an idle
// one halves until it is empty, an active one matures. Retractions in between
// would tell it nothing new and are not sent. A tick on an idle node with no
// managed keys sends, and allocates, nothing.
func (nd *node) reportTick() {
	r := &nd.ctl
	epoch := r.epoch.Add(1)
	clear(r.reported)
	if nd.tracker.Roll() {
		top, sum := nd.tracker.Window(adaptive.ReportTopK, adaptive.ColdCount, adaptive.ColdShare)
		proves := adaptive.ProvesAbsence(sum.Waiting, sum.Evidence, sum.Floor)
		for _, g := range r.groups {
			g.reset(sum)
		}
		for _, f := range top {
			id := reportGroup{home: nd.sys.home.NodeOf(f.Key), shard: msg.ShardOfKey(f.Key, len(nd.sh))}
			g := r.groups[id]
			if g == nil {
				g = &groupReport{m: msg.Manage{Kind: msg.ManageReport, Origin: int32(nd.id)}}
				g.reset(sum)
				r.groups[id] = g
			}
			g.m.Keys = append(g.m.Keys, f.Key)
			g.m.Vals = append(g.m.Vals, f.Count)
			g.seen = append(g.seen, f.Seen)
		}
		for id, g := range r.groups {
			retract := len(g.m.Keys) == 0
			if retract && !g.live && !(g.owed && proves) {
				continue
			}
			if retract { // the previous report's first key, now at zero
				g.m.Keys, g.m.Vals, g.seen = g.m.Keys[:1], append(g.m.Vals, 0), append(g.seen, 0)
			}
			g.live, g.owed = !retract, !retract || !proves
			g.m.Vals = append(g.m.Vals, g.seen...)
			nd.srv.Send(id.home, &g.m)
			if id.home == nd.id {
				r.reported[id.shard] = true
			}
		}
	}
	for s, sh := range nd.sh {
		for o := range sh.reportAt {
			if at := sh.reportAt[o].Load(); at != 0 {
				sh.stats.AdaptReportAge.Set(o, int64(epoch-(at-1)))
			}
		}
		// Sweep: advance the clock of this home's classifiers that hold
		// managed keys and were not sent a report, so a replicated key whose
		// traffic stopped entirely still accumulates the cold streak that
		// demotes it. The single key only selects the shard
		// (ShardOfKey(s, shards) == s for s < shards).
		if r.reported[s] || !sh.managing.Load() {
			continue
		}
		r.sweep = msg.Manage{Kind: msg.ManageSweep, Origin: int32(nd.id), Keys: append(r.sweep.Keys[:0], kv.Key(s))}
		nd.srv.Send(nd.id, &r.sweep)
	}
}

// setAsideTraceEvery rate-limits the trace record of an origin whose report
// is set aside for insufficient evidence: one per origin per this many
// epochs (a second at the default tick).
const setAsideTraceEvery = 200

// handleManage dispatches one adaptive-management message on the shard
// goroutine owning its keys. Manage input is checked, not trusted: a message
// no node sends — an unknown kind, keys that are not this shard's or not
// homed where its kind needs them, a sender that is not the node its kind
// comes from — is dropped whole, before it touches any state.
func (sh *policyShard) handleManage(m *msg.Manage) {
	switch m.Kind {
	case msg.ManageReport:
		if sh.classifier == nil || !sh.homedAt(m.Keys, sh.nd.id) {
			return // adaptive management disabled, or a stray report
		}
		rep, ok := reportOf(m)
		now, o := sh.nd.ctl.epoch.Load(), int(m.Origin)
		if !ok || o < 0 || o >= len(sh.reportAt) {
			return // reports are advisory: one that does not parse is dropped
		}
		// Together with the age the ticker derives from reportAt, this
		// answers "why was key k not replicated": how much evidence origin
		// o's latest report carried and how long ago it arrived.
		sh.stats.AdaptReportEvidence.Set(o, int64(rep.Evidence))
		sh.reportAt[o].Store(now + 1)
		if rep.Evidence > 0 && !adaptive.Sufficient(rep.Evidence) && now-sh.setAsideAt[o] >= setAsideTraceEvery {
			sh.setAsideAt[o] = now
			sh.trace.Record(sh.nd.id, sh.rt.Shard(), metrics.TraceReportSetAside, m.Keys[0], o, sh.nd.id,
				fmt.Sprintf("evidence=%.1f keys=%d", rep.Evidence, len(m.Keys)))
		}
		sh.runClassifier(sh.classifier.IngestReport(o, now, rep))
	case msg.ManageSweep:
		if sh.classifier == nil || int(m.Origin) != sh.nd.id {
			return // adaptive management disabled, or a stray sweep
		}
		sh.runClassifier(sh.classifier.Sweep(sh.nd.ctl.epoch.Load()))
	case msg.ManageReplicate:
		if !sh.nd.sys.replicate || !sh.fromHome(m) || !kv.Fits(sh.nd.sys.layout, m.Keys, len(m.Vals)) {
			return // an install no home sends is dropped whole
		}
		src := 0
		for _, k := range m.Keys {
			l := sh.nd.sys.layout.Len(k)
			sh.enterReplica(k, m.Vals[src:src+l])
			src += l
		}
	case msg.ManageUnreplicate:
		if !sh.nd.sys.replicate || !sh.fromHome(m) {
			return
		}
		for _, k := range m.Keys {
			sh.exitReplica(k)
		}
	case msg.ManageDemoteAck:
		sh.applyDemoteAck(m)
	case msg.ManageLocalize:
		if !sh.fromHome(m) {
			return
		}
		for _, k := range m.Keys {
			sh.localizeHere(k)
		}
	}
}

// homedAt reports whether keys is a non-empty list of keys of the layout that
// belong to this shard and are homed at node home.
func (sh *policyShard) homedAt(keys []kv.Key, home int) bool {
	nd := sh.nd
	for _, k := range keys {
		if k >= nd.sys.layout.NumKeys() || msg.ShardOfKey(k, len(nd.sh)) != sh.rt.Shard() || nd.sys.home.NodeOf(k) != home {
			return false
		}
	}
	return len(keys) > 0
}

// fromHome reports whether m comes from the home of its keys, and that home is
// another node: installs, unreplicates and localize hints are sent by the
// keys' home to the other nodes.
func (sh *policyShard) fromHome(m *msg.Manage) bool {
	return int(m.Origin) != sh.nd.id && sh.homedAt(m.Keys, int(m.Origin))
}

// runClassifier traces and executes one batch of classifier decisions (from
// a report ingest or an idle sweep), then publishes how many keys the
// classifier manages — as a gauge, and as the flag that tells the ticker
// whether this shard still needs sweeps.
func (sh *policyShard) runClassifier(acts []adaptive.Action) {
	for _, a := range acts {
		switch a.Kind {
		case adaptive.ActReplicate:
			sh.trace.Record(sh.nd.id, sh.rt.Shard(), metrics.TracePromote, a.Key, -1, sh.nd.id, a.Detail)
		case adaptive.ActDemote:
			sh.trace.Record(sh.nd.id, sh.rt.Shard(), metrics.TraceDemote, a.Key, sh.nd.id, -1, a.Detail)
		}
		sh.execute(a)
	}
	n := sh.classifier.Managed()
	sh.managing.Store(n > 0)
	sh.stats.AdaptManaged.Set(int64(n))
}

// execute runs one classifier decision. The classifier already filtered busy
// and recently changed keys; each transition re-validates the live state it
// depends on and degrades to a no-op when a race got there first (the
// controller simply retries on a later tick).
func (sh *policyShard) execute(a adaptive.Action) {
	switch a.Kind {
	case adaptive.ActReplicate:
		sh.beginReplicate(a.Key)
	case adaptive.ActDemote:
		sh.beginDemote(a.Key)
	case adaptive.ActRelocate:
		sh.stats.AdaptRelocations.Inc()
		sh.trace.Record(sh.nd.id, sh.rt.Shard(), metrics.TraceAdaptRelocate, a.Key,
			int(sh.nd.ownerEntry(a.Key).Load()), a.Dest, a.Detail)
		if a.Dest == sh.nd.id {
			sh.localizeHere(a.Key)
			return
		}
		sh.rt.SendOrDispatch(a.Dest, &msg.Manage{
			Kind: msg.ManageLocalize, Origin: int32(sh.nd.id), Keys: []kv.Key{a.Key}})
	}
}

// beginReplicate starts promoting k into replication at its home node. If
// the key currently lives elsewhere it is first recalled through the
// ordinary relocation protocol (owner swap + RelocInstruct, with a queue
// catching accesses that arrive meanwhile); handleTransfer then finishes the
// promotion when the value lands. A key already owned here finishes
// immediately, behind a queue of its own that holds concurrent worker
// accesses back while the value changes stores.
func (sh *policyShard) beginReplicate(k kv.Key) {
	nd := sh.nd
	if _, busy := sh.transitioning[k]; busy {
		return
	}
	here := int(nd.ownerEntry(k).Load()) == nd.id
	from := stateNotHere
	if here {
		from = stateOwned
	}
	sh.queueMu.Lock()
	if nd.state[k].Load() != from {
		// Replicated already, or a relocation toward this node is in flight
		// or draining (a co-located worker's Localize owns the queue); retry
		// on a later tick.
		sh.queueMu.Unlock()
		return
	}
	sh.openQueue(k)
	sh.transitioning[k] = &transition{kind: transPromote}
	if !here {
		// Recall: make this node the owner and instruct the current one to
		// transfer the key here.
		prev := int(nd.ownerEntry(k).Swap(int32(nd.id)))
		sh.rt.SendOrDispatch(prev, &msg.RelocInstruct{Dest: int32(nd.id), Keys: []kv.Key{k}})
	}
	sh.queueMu.Unlock()
	if here {
		sh.finishReplicate(k)
	}
}

// finishReplicate completes a promotion once the key's value is in the home
// store: drain anything still queued into the store, then — atomically with
// respect to worker enqueues — take the value out (which drops the leases
// granted on it, like any departure), send every other node the value in a
// ManageReplicate, hand it to the replication manager, flip the state to
// Replicated, and drop the queue. All of it is key-addressed, so on each
// (link, shard) stream a lease holder gets its drop before the install, and
// every replica gets the install before any refresh of the key: refreshes
// start from the replication manager's state, which does not exist before the
// broadcast is sent. A Localize that reaches the home meanwhile is dropped
// (handleLocalize): the broadcast answers it, its origin waking the waiting
// localizes when the replica is installed; home-side waiters (a co-located
// worker's Localize raced the promotion) are woken by the drain.
func (sh *policyShard) finishReplicate(k kv.Key) {
	nd := sh.nd
	var v []float32
	sh.drain(k, backStore, stateReplicated, func() {
		v = sh.takeOut(k)
		install := &msg.Manage{Kind: msg.ManageReplicate, Origin: int32(nd.id), Keys: []kv.Key{k}, Vals: v}
		for dest := 0; dest < nd.sys.cl.Nodes(); dest++ {
			if dest != nd.id {
				sh.rt.Send(dest, install)
			}
		}
		nd.rep.EnterHomeKey(k, v)
	})
	if v == nil {
		// handleLocalize drops every Localize for a key being promoted, so no
		// instruct can be issued against the home mid-promotion.
		panic(fmt.Sprintf("core: instruct queued during promotion of key %d", k))
	}
	delete(sh.transitioning, k)
	sh.stats.AdaptPromotions.Inc()
}

// enterReplica installs a replica of k at a non-home node (ManageReplicate).
// If a relocation of k toward this node is in flight — the home drops its
// Localize, so no transfer will answer it — its queue is adopted: queued
// accesses drain into the replica, in order and ahead of the Replicated fast
// path, and the queue's waiting localizes are woken. An instruct cannot be
// among the entries: one is only queued while this node is the key's
// registered owner, and the promoting home recalled the key before
// broadcasting.
func (sh *policyShard) enterReplica(k kv.Key, v []float32) {
	nd := sh.nd
	sh.queueMu.Lock()
	if q := sh.queues[k]; q != nil {
		sh.trace.Record(nd.id, sh.rt.Shard(), metrics.TraceQueueAdopt, k, -1, nd.id,
			fmt.Sprintf("entries=%d", len(q.entries)))
	}
	sh.queueMu.Unlock()
	nd.rep.EnterKey(k, v)
	sh.drain(k, backReplica, stateReplicated, nil)
}

// beginDemote starts returning a replicated key to plain ownership at its
// home: every other node is told to drop its replica and send back the
// deltas the sync cycle has not delivered yet. Until the last acknowledgement
// arrives, the key waits at the home in its relocation queue (state Incoming),
// as a key arriving there would: its accesses queue, and a Localize leaves
// its instruct there.
func (sh *policyShard) beginDemote(k kv.Key) {
	nd := sh.nd
	if _, busy := sh.transitioning[k]; busy || nd.state[k].Load() != stateReplicated {
		return
	}
	n := nd.sys.cl.Nodes()
	sh.transitioning[k] = &transition{kind: transDemote, acked: make([]bool, n), acksLeft: n - 1}
	unreplicate := &msg.Manage{Kind: msg.ManageUnreplicate, Origin: int32(nd.id), Keys: []kv.Key{k}}
	sh.queueMu.Lock()
	sh.openQueue(k)
	for dest := 0; dest < n; dest++ {
		if dest != nd.id {
			sh.rt.Send(dest, unreplicate)
		}
	}
	sh.queueMu.Unlock()
	if n == 1 {
		sh.finalizeDemote(k)
	}
}

// exitReplica handles ManageUnreplicate at a replica node: stop serving k
// locally (worker accesses fail over to the network path the moment the
// replica entry goes) and acknowledge with the deltas no sync carried yet.
// The ack travels the same (node, shard) stream as operations for k and as
// the syncs that carried its other deltas, staying FIFO behind both. A key
// that is not Replicated here has no replica to give up and is left alone.
func (sh *policyShard) exitReplica(k kv.Key) {
	nd := sh.nd
	if nd.state[k].Load() != stateReplicated {
		return
	}
	vals := nd.rep.DemoteLocal(k)
	nd.state[k].Store(stateNotHere)
	sh.rt.SendOrDispatch(nd.sys.home.NodeOf(k), &msg.Manage{
		Kind: msg.ManageDemoteAck, Origin: int32(nd.id), Keys: []kv.Key{k}, Vals: vals})
}

// applyDemoteAck folds one replica's residual deltas at the home and, when
// the last replica has answered, finalizes the demotion. An ack no replica
// sends — not exactly one key, an origin that is no other node, no demotion
// of the key in flight here, deltas that do not fit it — is dropped whole, and
// so is a second ack from a replica already counted.
func (sh *policyShard) applyDemoteAck(m *msg.Manage) {
	if o := int(m.Origin); len(m.Keys) != 1 || o < 0 || o >= sh.nd.sys.cl.Nodes() || o == sh.nd.id {
		return
	}
	k := m.Keys[0]
	tr := sh.transitioning[k]
	if tr == nil || tr.kind != transDemote || tr.acked[m.Origin] || !sh.nd.rep.ApplyDemoteAck(k, m.Vals) {
		return
	}
	tr.acked[m.Origin] = true
	tr.acksLeft--
	if tr.acksLeft == 0 {
		sh.finalizeDemote(k)
	}
}

// finalizeDemote completes a demotion at the home: fold the home's own
// residual deltas, put the authoritative value back into the relocation store
// and drain the key's queue into it, as an arrival does. The owner table
// still names the home (it has since the promotion) unless a Localize handled
// meanwhile moved it on; that Localize's instruct, in the queue, then sends
// the value to its origin.
func (sh *policyShard) finalizeDemote(k kv.Key) {
	nd := sh.nd
	nd.store.Set(k, nd.rep.FinalizeDemote(k))
	delete(sh.transitioning, k)
	sh.stats.AdaptDemotions.Inc()
	sh.drain(k, backStore, stateOwned, nil)
}

// localizeHere starts relocating k to this node from the server side (a
// ManageLocalize hint, or the home recalling a cold stray key): mark the key
// incoming, open its queue, and send the ordinary Localize to the home before
// the queue lock is released, so accesses that arrive before the transfer are
// caught exactly as in the worker-initiated protocol. No waiter joins the
// queue — nothing blocks on the arrival.
func (sh *policyShard) localizeHere(k kv.Key) {
	nd := sh.nd
	sh.queueMu.Lock()
	defer sh.queueMu.Unlock()
	if nd.state[k].Load() != stateNotHere {
		return // already here, arriving, or replicated
	}
	sh.openQueue(k)
	// At the home itself the request is acted on inline: handleLocalize and
	// the instruct it sends take no queue lock.
	sh.rt.SendOrDispatch(nd.sys.home.NodeOf(k), &msg.Localize{Origin: int32(nd.id), Keys: []kv.Key{k}})
}
