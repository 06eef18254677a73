package transport_test

import (
	"fmt"
	"testing"

	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/simnet"
	"lapse/internal/transport"
	"lapse/internal/transport/shm"
	"lapse/internal/transport/tcp"
)

// transports returns one factory per Network implementation, so the
// conformance checks below run identically against the simulated network,
// real TCP loopback sockets, and shared-memory rings.
func transports(t testing.TB) map[string]func() transport.Network {
	m := map[string]func() transport.Network{
		"simnet": func() transport.Network {
			return simnet.New(simnet.Config{Nodes: 2})
		},
		"tcp": func() transport.Network {
			n, err := tcp.New(tcp.Config{Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}})
			if err != nil {
				t.Fatalf("tcp.New: %v", err)
			}
			return n
		},
	}
	if shm.Supported() {
		m["shm"] = func() transport.Network {
			n, err := shm.New(shm.Config{Dir: t.TempDir(), Nodes: 2})
			if err != nil {
				t.Fatalf("shm.New: %v", err)
			}
			return n
		}
	}
	return m
}

// TestSendDoesNotAliasMessageMemory is the transport-boundary contract: a
// message crosses every transport through the wire codec, so the receiver
// observes a decoded copy and mutations the sender makes to the message — or
// to its Keys/Vals slices — after Send cannot leak across. (Before the
// transport layer, simnet handed the receiver the sender's pointer, so a
// worker reusing its push buffer could corrupt the values a server was still
// applying.)
func TestSendDoesNotAliasMessageMemory(t *testing.T) {
	for name, mk := range transports(t) {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()

			op := &msg.Op{
				Type:   msg.OpPush,
				ID:     7,
				Origin: 0,
				Keys:   []kv.Key{1, 2},
				Vals:   []float32{10, 20},
			}
			net.Send(0, 1, op)
			// Sender reuses its buffers immediately after Send — the
			// exact hazard: these writes must not reach the receiver.
			op.Keys[0] = 99
			op.Vals[0] = -1
			op.ID = 1234

			env := <-net.Inbox(1, 0)
			got, ok := env.Msg.(*msg.Op)
			if !ok {
				t.Fatalf("received %T, want *msg.Op", env.Msg)
			}
			if got == op {
				t.Fatal("receiver got the sender's pointer; message did not cross the codec")
			}
			if got.ID != 7 || got.Keys[0] != 1 || got.Vals[0] != 10 {
				t.Fatalf("receiver observed the sender's post-Send mutations: %+v", got)
			}

			// And the reverse direction: receiver-side mutations must
			// not reach the sender's message.
			got.Vals[1] = 555
			if op.Vals[1] != 20 {
				t.Fatal("receiver mutation visible in the sender's slice")
			}
		})
	}
}

// TestPooledBufferUseAfterRelease hunts retention bugs in the pooled
// encode/decode path: with poison-on-release enabled, every released encode
// buffer and recycled decode scratch is overwritten with msg.PoisonKey /
// msg.PoisonVal. A stream of messages is sent on each transport — so pooled
// buffers are reused many times — while the receiver retains every decoded
// message unrecycled and recycles a trailing prefix. No retained message may
// ever observe poison (its scratch is its own until Recycle), and every
// value must survive both the sender's buffer release and later sends.
func TestPooledBufferUseAfterRelease(t *testing.T) {
	msg.SetPoison(true)
	defer msg.SetPoison(false)
	const msgs = 400
	for name, mk := range transports(t) {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			done := make(chan error, 1)
			go func() {
				var retained []transport.Envelope
				defer func() {
					for i := range retained {
						retained[i].Recycle()
					}
				}()
				for i := 0; i < msgs; i++ {
					env := <-net.Inbox(1, 0)
					op := env.Msg.(*msg.Op)
					// Messages from the two links interleave arbitrarily;
					// each message's payload is derived from its own ID.
					wantKey := kv.Key(op.ID)
					wantVal := float32(op.ID) / 2
					if len(op.Keys) != 2 || op.Keys[0] != wantKey || op.Keys[1] != wantKey+1 ||
						op.Vals[0] != wantVal || op.Vals[1] != float32(op.ID) {
						done <- fmt.Errorf("message %d decoded as id=%d keys=%v vals=%v", i, op.ID, op.Keys, op.Vals)
						return
					}
					for _, k := range op.Keys {
						if k == msg.PoisonKey {
							done <- fmt.Errorf("message %d observed poisoned key (use-after-release)", i)
							return
						}
					}
					for _, v := range op.Vals {
						if v == msg.PoisonVal {
							done <- fmt.Errorf("message %d observed poisoned value (use-after-release)", i)
							return
						}
					}
					retained = append(retained, env)
					// Recycle a trailing prefix so the scratch pool cycles
					// under load; the last 16 stay retained and are
					// re-verified below.
					if len(retained) > 16 {
						retained[0].Recycle()
						retained = retained[1:]
					}
					// The retained tail must be intact although the sender
					// released (and poisoned) its encode buffers long ago.
					first := retained[0].Msg.(*msg.Op)
					if first.Keys[0] == msg.PoisonKey || first.Vals[0] == msg.PoisonVal {
						done <- fmt.Errorf("retained message poisoned while %d in flight", i)
						return
					}
				}
				done <- nil
			}()
			op := &msg.Op{Type: msg.OpPush}
			for i := 0; i < msgs; i++ {
				// Reuse the sender-side struct and slices across sends: the
				// transport owns nothing of the caller's after Send returns.
				op.ID = uint64(i)
				op.Keys = append(op.Keys[:0], kv.Key(i), kv.Key(i)+1)
				op.Vals = append(op.Vals[:0], float32(i)/2, float32(i))
				net.Send(i%2, 1, op)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTransportFIFOAndLoopback checks the shared delivery contract on both
// implementations: per-link FIFO order (including the src==dst loopback
// link) and loopback/remote traffic accounting.
func TestTransportFIFOAndLoopback(t *testing.T) {
	for name, mk := range transports(t) {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			const msgs = 200
			for i := 0; i < msgs; i++ {
				net.Send(0, 1, &msg.SspClock{Worker: 0, Clock: int32(i)})
				net.Send(1, 1, &msg.SspClock{Worker: 1, Clock: int32(i)})
			}
			next := [2]int32{}
			for i := 0; i < 2*msgs; i++ {
				env := <-net.Inbox(1, 0)
				c := env.Msg.(*msg.SspClock)
				if c.Clock != next[c.Worker] {
					t.Fatalf("link %d->1: got seq %d, want %d", c.Worker, c.Clock, next[c.Worker])
				}
				next[c.Worker]++
			}
			s := net.Stats()
			if s.RemoteMessages != msgs || s.LoopbackMessages != msgs {
				t.Fatalf("stats = %+v, want %d remote / %d loopback", s, msgs, msgs)
			}
		})
	}
}
