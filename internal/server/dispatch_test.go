package server

import (
	"testing"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/msg"
)

// testPolicy is a minimal classic-style server: it owns a flat parameter
// array and answers pulls/pushes for any key, echoing the request's key list
// (occurrences included) so duplicate keys are answered per occurrence.
type testPolicy struct {
	rt     *Runtime
	layout kv.Layout
	params []float32
}

func (p *testPolicy) OnOpResp(*msg.OpResp) {}

func (p *testPolicy) HandleMessage(src int, m any) {
	op, ok := m.(*msg.Op)
	if !ok {
		panic("testPolicy: unexpected message")
	}
	switch op.Type {
	case msg.OpPull:
		var vals []float32
		for _, k := range op.Keys {
			o := p.layout.Offset(k)
			vals = append(vals, p.params[o:o+int64(p.layout.Len(k))]...)
		}
		p.rt.Send(int(op.Origin), &msg.OpResp{Type: msg.OpPull, ID: op.ID, Responder: int32(p.rt.Node()), Keys: op.Keys, Vals: vals})
	case msg.OpPush:
		src := 0
		for _, k := range op.Keys {
			o := p.layout.Offset(k)
			l := p.layout.Len(k)
			for i := 0; i < l; i++ {
				p.params[o+int64(i)] += op.Vals[src+i]
			}
			src += l
		}
		p.rt.Send(int(op.Origin), &msg.OpResp{Type: msg.OpPush, ID: op.ID, Responder: int32(p.rt.Node()), Keys: op.Keys})
	}
}

// remoteRouter sends every key to node 1.
type remoteRouter struct{}

func (remoteRouter) RouteKey(msg.OpType, *OpCtx, kv.Key, []float32, []float32) KeyRoute {
	return KeyRoute{Dest: 1}
}

// newDispatchFixture builds a 2-node group whose servers run testPolicy over
// a shared-layout parameter array initialized to params(k,i) = 10k+i.
func newDispatchFixture(t *testing.T) (*cluster.Cluster, *Group, kv.UniformLayout) {
	t.Helper()
	layout := kv.NewUniformLayout(16, 2)
	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 1})
	g := NewGroup(cl, layout)
	g.Start(func(node, shard int) Policy {
		p := &testPolicy{rt: g.Runtime(node, shard), layout: layout, params: make([]float32, layout.TotalLen())}
		for k := kv.Key(0); k < layout.NumKeys(); k++ {
			for i := 0; i < layout.ValLen; i++ {
				p.params[layout.Offset(k)+int64(i)] = float32(10*k) + float32(i)
			}
		}
		return p
	})
	t.Cleanup(func() {
		cl.Close()
		g.Wait()
	})
	return cl, g, layout
}

// TestDispatchOpDuplicateKeyPull pins the duplicate-key fix: a pull that
// names the same key twice must fill both destination regions. (The old
// key→offset map collapsed both occurrences onto the last region, leaving
// the first one untouched.)
func TestDispatchOpDuplicateKeyPull(t *testing.T) {
	_, g, _ := newDispatchFixture(t)
	h := NewHandle(g.Node(0), 0, nil)
	keys := []kv.Key{5, 5, 7}
	dst := []float32{-1, -1, -1, -1, -1, -1}
	if err := h.DispatchOp(remoteRouter{}, msg.OpPull, keys, dst, nil).Wait(); err != nil {
		t.Fatal(err)
	}
	want := []float32{50, 51, 50, 51, 70, 71}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v (occurrence regions must all be filled)", dst, want)
		}
	}
}

// TestDispatchOpDuplicateKeyPush pins the push side: both occurrences' update
// terms must be applied from their own value regions.
func TestDispatchOpDuplicateKeyPush(t *testing.T) {
	_, g, layout := newDispatchFixture(t)
	h := NewHandle(g.Node(0), 0, nil)
	keys := []kv.Key{3, 3}
	vals := []float32{1, 2, 4, 8}
	if err := h.DispatchOp(remoteRouter{}, msg.OpPush, keys, nil, vals).Wait(); err != nil {
		t.Fatal(err)
	}
	// Read back via a pull and check both deltas landed: 30+1+4, 31+2+8.
	dst := make([]float32, layout.ValLen)
	if err := h.DispatchOp(remoteRouter{}, msg.OpPull, keys[:1], dst, nil).Wait(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 35 || dst[1] != 41 {
		t.Fatalf("after duplicate push, key 3 = %v, want [35 41]", dst)
	}
}

// mixedRouter serves exactly one chosen occurrence (by routing-call index)
// through the fast path — writing sentinel values — and routes every other
// occurrence to node 1. It models a key whose locality flips mid-dispatch.
type mixedRouter struct {
	serveCall int
	calls     int
}

func (r *mixedRouter) RouteKey(t msg.OpType, _ *OpCtx, k kv.Key, dst, vals []float32) KeyRoute {
	call := r.calls
	r.calls++
	if call == r.serveCall {
		for i := range dst {
			dst[i] = 111 + float32(i)
		}
		return KeyRoute{Served: true}
	}
	return KeyRoute{Dest: 1}
}

// TestDispatchOpDuplicateKeyMixedFastAndRemote covers duplicate occurrences
// of one key where one occurrence is served through the fast path and the
// other goes remote — in both orders. The remote response must land in the
// remote occurrence's region, never on the fast-served one: served before
// registration, the occurrence is excluded from the offset table; served
// after, its entry is claimed eagerly (Pending.ClaimOffset).
func TestDispatchOpDuplicateKeyMixedFastAndRemote(t *testing.T) {
	for name, tc := range map[string]struct {
		serveCall int
		want      []float32
	}{
		"served-then-remote": {serveCall: 0, want: []float32{111, 112, 50, 51}},
		"remote-then-served": {serveCall: 1, want: []float32{50, 51, 111, 112}},
	} {
		t.Run(name, func(t *testing.T) {
			_, g, _ := newDispatchFixture(t)
			h := NewHandle(g.Node(0), 0, nil)
			dst := []float32{-1, -1, -1, -1}
			r := &mixedRouter{serveCall: tc.serveCall}
			if err := h.DispatchOp(r, msg.OpPull, []kv.Key{5, 5}, dst, nil).Wait(); err != nil {
				t.Fatal(err)
			}
			for i := range tc.want {
				if dst[i] != tc.want[i] {
					t.Fatalf("dst = %v, want %v (response misdirected onto the wrong occurrence)", dst, tc.want)
				}
			}
		})
	}
}

// localRouter serves every key from a worker-local array (the shared-memory
// fast path), so DispatchOp registers nothing.
type localRouter struct {
	layout kv.UniformLayout
	params []float32
}

func (r *localRouter) RouteKey(t msg.OpType, _ *OpCtx, k kv.Key, dst, vals []float32) KeyRoute {
	o := r.layout.Offset(k)
	switch t {
	case msg.OpPull:
		copy(dst, r.params[o:o+int64(r.layout.ValLen)])
	case msg.OpPush:
		for i, v := range vals {
			r.params[o+int64(i)] += v
		}
	}
	return KeyRoute{Served: true}
}

// TestDispatchOpAllLocalZeroAlloc is the regression gate for the zero-alloc
// dispatch claim: a steady-state multi-key operation whose keys are all
// served through the fast path must not allocate — no pending registration,
// no aggregate, no future, no grouping state.
func TestDispatchOpAllLocalZeroAlloc(t *testing.T) {
	_, g, layout := newDispatchFixture(t)
	h := NewHandle(g.Node(0), 0, nil)
	r := &localRouter{layout: layout, params: make([]float32, layout.TotalLen())}
	keys := []kv.Key{1, 2, 3, 4, 5, 6, 7, 8}
	buf := make([]float32, layout.ValLen*len(keys))
	dispatch := func() {
		if f := h.DispatchOp(r, msg.OpPull, keys, buf, nil); f == nil {
			t.Fatal("nil future")
		}
		if f := h.DispatchOp(r, msg.OpPush, keys, nil, buf); f == nil {
			t.Fatal("nil future")
		}
	}
	dispatch() // warm the per-handle scratch
	if n := testing.AllocsPerRun(100, dispatch); n != 0 {
		t.Errorf("all-local DispatchOp allocates %.1f times per pull+push pair, want 0", n)
	}
}
