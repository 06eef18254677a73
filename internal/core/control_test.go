package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"lapse/internal/adaptive"
	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/simnet"
	"lapse/internal/transport"
)

// The control events of TestControlTable, in column order: the classifier's
// three decisions as the home executes them, and the two control messages a
// home receives from another node.
const (
	evReplicate = iota // adaptive.ActReplicate
	evDemote           // adaptive.ActDemote
	evRelocate         // adaptive.ActRelocate to node 2
	evLocalize         // a Localize from node 2
	evDemoteAck        // a ManageDemoteAck from node 2
)

// ctlCell is what the home does with one control event: the messages it
// sends, in order (kind→destination), the key's state at the home after it,
// and whether a management transition of the key is in flight after it.
type ctlCell struct {
	sends    string
	state    uint32
	inFlight bool
}

// controlTable is the control plane at a key's home as a table: what each
// control event does given where the key stands. The last four rows are
// reached the way the system reaches them, through cells above: replicated is
// owned here after ActReplicate, promoting is registered elsewhere after
// ActReplicate, demoting is replicated after ActDemote, and demoting with node
// 2's ack in is demoting after DemoteAck from 2. A demotion holds the key in
// its queue at the home, Incoming, as an arrival does.
var controlTable = []struct {
	row   string
	cells [5]ctlCell
}{
	{"owned here", [5]ctlCell{
		evReplicate: {"Manage/replicate→0, Manage/replicate→2", stateReplicated, false},
		evDemote:    {"", stateOwned, false},
		evRelocate:  {"Manage/localize-hint→2", stateOwned, false},
		evLocalize:  {"RelocTransfer→2", stateNotHere, false},
		evDemoteAck: {"", stateOwned, false},
	}},
	{"registered elsewhere", [5]ctlCell{
		evReplicate: {"RelocInstruct→2", stateIncoming, true},
		evDemote:    {"", stateNotHere, false},
		evRelocate:  {"Manage/localize-hint→2", stateNotHere, false},
		evLocalize:  {"RelocInstruct→2", stateNotHere, false},
		evDemoteAck: {"", stateNotHere, false},
	}},
	{"incoming by a home worker's localize", [5]ctlCell{
		evReplicate: {"", stateIncoming, false},
		evDemote:    {"", stateIncoming, false},
		evRelocate:  {"Manage/localize-hint→2", stateIncoming, false},
		evLocalize:  {"", stateIncoming, false}, // the instruct waits in the queue
		evDemoteAck: {"", stateIncoming, false},
	}},
	{"replicated", [5]ctlCell{
		evReplicate: {"", stateReplicated, false},
		evDemote:    {"Manage/unreplicate→0, Manage/unreplicate→2", stateIncoming, true},
		evRelocate:  {"Manage/localize-hint→2", stateReplicated, false},
		evLocalize:  {"", stateReplicated, false}, // node 2's install answers it
		evDemoteAck: {"", stateReplicated, false},
	}},
	{"promoting", [5]ctlCell{
		evReplicate: {"", stateIncoming, true},
		evDemote:    {"", stateIncoming, true},
		evRelocate:  {"Manage/localize-hint→2", stateIncoming, true},
		evLocalize:  {"", stateIncoming, true}, // the promotion's install answers it
		evDemoteAck: {"", stateIncoming, true},
	}},
	{"demoting", [5]ctlCell{
		evReplicate: {"", stateIncoming, true},
		evDemote:    {"", stateIncoming, true},
		evRelocate:  {"Manage/localize-hint→2", stateIncoming, true},
		evLocalize:  {"", stateIncoming, true}, // the instruct waits in the queue
		evDemoteAck: {"", stateIncoming, true}, // node 0's is still outstanding
	}},
	{ackedRow, [5]ctlCell{
		evReplicate: {"", stateIncoming, true},
		evDemote:    {"", stateIncoming, true},
		evRelocate:  {"Manage/localize-hint→2", stateIncoming, true},
		evLocalize:  {"", stateIncoming, true},
		evDemoteAck: {"", stateIncoming, true}, // a duplicate: node 0's is still the one outstanding
	}},
}

// ackedRow is the demotion with node 2's acknowledgement, and its delta of 1,
// folded once already.
const ackedRow = "demoting, node 2 already acked"

// homeSends is a transport that records, and drops, every message node 1 —
// the home of the fixture's keys — sends, so a cell sees exactly what its
// event sends and nothing comes back to the home while the test drives its
// shard by hand. last is the latest of those messages.
type homeSends struct {
	transport.Network
	mu   sync.Mutex
	log  []string
	last any
}

func (n *homeSends) Send(src, dst int, m any) {
	if src != 1 {
		n.Network.Send(src, dst, m)
		return
	}
	what := strings.TrimPrefix(fmt.Sprintf("%T", m), "*msg.")
	if t, ok := m.(*msg.Manage); ok {
		what += "/" + t.Kind.String()
	}
	n.mu.Lock()
	n.log = append(n.log, fmt.Sprintf("%s→%d", what, dst))
	n.last = m
	n.mu.Unlock()
}

// since returns the sends recorded after the first i.
func (n *homeSends) since(i int) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return strings.Join(n.log[i:], ", ")
}

// count returns the number of sends recorded so far.
func (n *homeSends) count() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.log)
}

// TestControlTable rigs a fresh key into each row's state at its home node 1,
// fires the column's event on the home's shard, and compares what the home
// sent and where the key stands with the cell. Where node 2's ack was folded
// before the event, the authoritative value holds its delta exactly once: a
// duplicate ack counted again would also have ended the demotion, with node
// 0's ack still outstanding.
func TestControlTable(t *testing.T) {
	net := &homeSends{Network: simnet.New(simnet.Config{Nodes: 3})}
	cl := cluster.New(cluster.Config{Nodes: 3, WorkersPerNode: 1, Transport: net})
	// One replicated key gives every node a replication manager.
	sys := New(cl, kv.NewUniformLayout(300, 1), Config{Replicate: []kv.Key{299}})
	t.Cleanup(func() { cl.Close(); sys.Shutdown() })
	sys.stopLoops()
	f := &gateFixture{t: t, sys: sys, next: 100} // node 1 homes 100..199
	fire := func(sh *policyShard, ev int, k kv.Key) {
		switch ev {
		case evReplicate:
			sh.execute(adaptive.Action{Kind: adaptive.ActReplicate, Key: k})
		case evDemote:
			sh.execute(adaptive.Action{Kind: adaptive.ActDemote, Key: k})
		case evRelocate:
			sh.execute(adaptive.Action{Kind: adaptive.ActRelocate, Key: k, Dest: 2})
		case evLocalize:
			sh.HandleMessage(2, &msg.Localize{ID: 1, Origin: 2, Keys: []kv.Key{k}})
		case evDemoteAck: // node 2's residual delta: 1
			sh.HandleMessage(2, &msg.Manage{Kind: msg.ManageDemoteAck, Origin: 2, Keys: []kv.Key{k}, Vals: []float32{1}})
		}
	}
	var rig func(row string) (*policyShard, kv.Key)
	rig = func(row string) (*policyShard, kv.Key) {
		var (
			sh *policyShard
			k  kv.Key
		)
		switch row {
		case "owned here":
			return f.rig(1, stateOwned, false)
		case "registered elsewhere":
			return f.rig(1, stateNotHere, false)
		case "incoming by a home worker's localize":
			return f.rig(1, stateIncoming, true)
		case "replicated":
			sh, k = rig("owned here")
			fire(sh, evReplicate, k)
		case "promoting":
			sh, k = rig("registered elsewhere")
			fire(sh, evReplicate, k)
		case "demoting":
			sh, k = rig("replicated")
			fire(sh, evDemote, k)
		case ackedRow:
			sh, k = rig("demoting")
			fire(sh, evDemoteAck, k)
		}
		return sh, k
	}
	events := [...]string{"ActReplicate", "ActDemote", "ActRelocate→2", "Localize from 2", "DemoteAck from 2"}
	for _, r := range controlTable {
		for ev, want := range r.cells {
			t.Run(r.row+"/"+events[ev], func(t *testing.T) {
				f.t = t
				sh, k := rig(r.row)
				from := net.count()
				fire(sh, ev, k)
				_, inFlight := sh.transitioning[k]
				got := ctlCell{net.since(from), sh.nd.state[k].Load(), inFlight}
				if got != want {
					t.Fatalf("got %+v, want %+v", got, want)
				}
				if r.row == ackedRow {
					v := make([]float32, 1)
					if sh.nd.rep.ReadAuthoritative(k, v); v[0] != 5+1 {
						t.Fatalf("authoritative value %v, want 6: 5 at the promotion plus node 2's delta once", v[0])
					}
				}
			})
		}
	}
	// A Localize from node 2 mid-demotion is handled at once and leaves its
	// instruct in the home's queue. Node 0's ack, the last, ends the
	// demotion: the drain sends node 2 the value with each ack's delta folded
	// exactly once.
	t.Run(ackedRow+"/Localize from 2, then DemoteAck from 0", func(t *testing.T) {
		f.t = t
		sh, k := rig(ackedRow)
		fire(sh, evLocalize, k)
		from := net.count()
		sh.HandleMessage(0, &msg.Manage{Kind: msg.ManageDemoteAck, Origin: 0, Keys: []kv.Key{k}, Vals: []float32{2}})
		_, inFlight := sh.transitioning[k]
		if got, want := (ctlCell{net.since(from), sh.nd.state[k].Load(), inFlight}), (ctlCell{"RelocTransfer→2", stateNotHere, false}); got != want {
			t.Fatalf("got %+v, want %+v", got, want)
		}
		net.mu.Lock()
		tr := net.last.(*msg.RelocTransfer)
		net.mu.Unlock()
		if len(tr.Vals) != 1 || tr.Vals[0] != 5+1+2 {
			t.Fatalf("transfer carries %v, want 8: 5 at the promotion plus node 2's 1 and node 0's 2, once each", tr.Vals)
		}
		if o := sh.nd.ownerEntry(k).Load(); o != 2 {
			t.Fatalf("owner %d, want 2", o)
		}
	})
}
