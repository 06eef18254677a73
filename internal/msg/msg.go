// Package msg defines the wire messages exchanged between nodes of a
// parameter server and a compact binary codec for them.
//
// The real Lapse implementation uses ZeroMQ with protocol-buffer payloads;
// here the codec is the actual message path: every transport (the simulated
// network of internal/simnet, the TCP transport of internal/transport/tcp and
// the shared-memory transport of internal/transport/shm) encodes messages on
// Send and hands receivers a freshly decoded copy, so no pointer ever crosses
// a node boundary.
//
// Wire format: each message is [kind:1][payloadLen:4][payload], little
// endian throughout. Nil and zero-length slices are indistinguishable on the
// wire (both encode a zero count) and canonically decode to nil. Decode
// never panics on malformed input — every field read is bounds-checked and
// the payload must be consumed exactly — making it safe to feed bytes
// straight off a socket (fuzzed by FuzzCodecRoundTrip).
//
// The steady-state message path is allocation-free: senders encode with
// AppendTo into pooled buffers (GetBuf/PutBuf) and receivers decode through
// pooled Scratch arenas (GetScratch/Scratch.Decode/Release); both are
// wire-identical to Encode/Decode. See DESIGN.md "Allocation-free message
// path" for the ownership protocol and the poison-on-release debug mode.
package msg

import (
	"encoding/binary"
	"fmt"
	"math"

	"lapse/internal/kv"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. The Op* kinds are client operations that may be forwarded
// between nodes; the Reloc* kinds implement the relocation protocol of
// Section 3.2; the Ssp* kinds implement the stale (Petuum-style) protocol;
// the Replica* kinds implement the hot-key replication sync cycle, and
// ReplicaRefresh also carries the serving tier's lease coherence.
const (
	KindInvalid Kind = iota
	KindOp           // pull/push request (possibly forwarded)
	KindOpResp       // response to a pull/push
	KindLocalize
	KindRelocInstruct
	KindRelocTransfer
	KindSspClock
	KindSspSync
	KindBarrier
	KindBlock
	KindReplicaSync
	KindReplicaRefresh
	KindManage
)

var kindNames = [...]string{
	KindOp:             "Op",
	KindOpResp:         "OpResp",
	KindLocalize:       "Localize",
	KindRelocInstruct:  "RelocInstruct",
	KindRelocTransfer:  "RelocTransfer",
	KindSspClock:       "SspClock",
	KindSspSync:        "SspSync",
	KindBarrier:        "Barrier",
	KindBlock:          "Block",
	KindReplicaSync:    "ReplicaSync",
	KindReplicaRefresh: "ReplicaRefresh",
	KindManage:         "Manage",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// OpType distinguishes pulls from pushes inside an Op message.
type OpType uint8

// Operation types.
const (
	OpPull OpType = iota
	OpPush
)

func (t OpType) String() string {
	if t == OpPull {
		return "pull"
	}
	return "push"
}

// Op is a (possibly multi-key) pull or push request. Origin identifies the
// node whose worker issued the operation and ID the pending-operation slot at
// that node, so that the final owner can respond directly to the origin.
// Hops counts forwarding steps (for double-forward accounting and loop
// detection).
type Op struct {
	Type   OpType
	ID     uint64
	Origin int32
	Hops   uint8
	// Lease marks a read-only pull whose origin wants a serving-cache lease
	// on the requested keys: the home grants one (OpResp.LeaseTTL) when the
	// keys are owned and not replicated. Ignored for pushes.
	Lease bool
	Keys  []kv.Key
	Vals  []float32 // push update terms (concatenated in Keys order); nil for pulls
}

// OpResp answers an Op. For pulls, Vals carries the requested values in Keys
// order. Responder is the node that held the keys; origins use it to update
// their location caches. LeaseTTL is the serving tier's field. On a pull
// response it is nonzero when the responder granted a serving-cache lease on
// the response's keys: the origin may serve reads of those keys from its
// local cache for LeaseTTL microseconds. On a push acknowledgement it is
// nonzero when the responder refreshed the origin's leased copy of every
// acknowledged key ahead of this ack (a ReplicaRefresh carrying the
// post-write value, FIFO before it); zero tells the origin that nothing vouches for what
// it had cached under those keys.
type OpResp struct {
	Type      OpType
	ID        uint64
	Responder int32
	LeaseTTL  uint32 // lease time in microseconds; 0 = no lease granted / no copy refreshed
	Keys      []kv.Key
	Vals      []float32 // nil for push acknowledgements
}

// Localize asks the home node of Keys to relocate them to Origin (message 1
// of the relocation protocol). ID is a correlation number the home copies
// into the instructs and the owners into the transfers, so the up to three
// messages of one relocation can be told from another's in a message dump.
// Nobody looks it up: an arrival wakes whoever waits on the key's relocation
// queue at Origin, and requests a server issues itself leave it 0.
type Localize struct {
	ID     uint64
	Origin int32
	Keys   []kv.Key
}

// RelocInstruct tells the current owner to stop processing, remove Keys from
// its store, and transfer them to Dest (message 2 of the protocol).
type RelocInstruct struct {
	ID   uint64 // the Localize's correlation number (0: a recall by the home)
	Dest int32
	Keys []kv.Key
}

// RelocTransfer hands the parameter values over to the new owner (message 3).
type RelocTransfer struct {
	ID   uint64 // the instruct's correlation number
	Keys []kv.Key
	Vals []float32
}

// SspClock reports that worker Worker advanced its clock to Clock. It is sent
// to every server after the worker flushed its buffered updates.
type SspClock struct {
	Worker int32
	Clock  int32
}

// SspSync carries replica refreshes in the stale PS: for client-based
// synchronization it answers an explicit fetch; for server-based
// synchronization (SSPPush) the server sends it eagerly after a global clock
// advance. Clock is the global clock the values reflect.
type SspSync struct {
	ID    uint64 // pending fetch ID at the destination; 0 for eager pushes
	Clock int32
	Keys  []kv.Key
	Vals  []float32
}

// Barrier implements a simple distributed barrier through the coordinator
// node (node 0): workers send Enter=true, the coordinator answers with
// Enter=false once all have arrived. Seq numbers consecutive barriers.
type Barrier struct {
	Enter  bool
	Seq    uint32
	Worker int32
}

// Block hands a raw float32 block from worker to worker. It is used by the
// low-level DSGD baseline's MPI-style ring communication (Section 4.4), not
// by any parameter-server protocol: ID names the column-factor block and
// Worker the global index of the receiving worker thread.
type Block struct {
	ID     int32
	Worker int32
	Vals   []float32
}

// ReplicaSync carries the cumulative update deltas node Origin accumulated
// for replicated keys of one server shard homed at the destination (phase 1
// of the hot-key replication sync cycle). Vals holds the deltas concatenated
// in Keys order. Seq numbers the sync rounds of Origin's stripe for that
// shard; the home acknowledges the highest applied Seq in ReplicaRefresh.Ack
// so Origin can retire its in-flight deltas.
type ReplicaSync struct {
	Origin int32
	Seq    uint32
	Keys   []kv.Key
	Vals   []float32
}

// ReplicaRefresh brings a node's copies of remote keys up to date from the
// node that made them, Origin: the home of a replica or the owner that
// granted a serving-cache lease. A holder applies it only to the copies
// Origin made.
//
// For replicas it is phase 2 of the sync cycle: the home fans the merged
// authoritative values of one shard's keys out to one replica node, and Ack
// is the highest ReplicaSync.Seq of that shard received from the destination
// whose deltas are reflected in Vals.
//
// For leases it is the owner's coherence message, in one of two forms. With
// Vals it is a refresh: a write was applied at the owner, Vals is the
// post-write value and Ack the lease time left in microseconds; the holder
// overwrites its live copy in place and never keeps it past Ack. With empty
// Vals it is a drop: the value is leaving the owner (relocation, promotion),
// so the holder discards its leased copies; replicas never take the drop
// form. The owner sends one message per key, ahead of the push ack or the
// transfer that follows it on the key's (link, shard) stream.
type ReplicaRefresh struct {
	Origin int32
	Ack    uint32
	Keys   []kv.Key
	Vals   []float32
}

// ManageKind discriminates the adaptive-management control operations carried
// by a Manage message (see internal/core's adaptive controller).
type ManageKind uint8

// Manage operations.
const (
	// ManageReport carries one node's tracker window for keys homed at the
	// destination. Vals
	// holds 3+2·len(Keys) numbers: the window's waiting (slow-path access
	// estimate), evidence (recorded observations) and report floor, then
	// every key's access estimate, then every key's recorded observations
	// (see core.reportOf).
	ManageReport ManageKind = iota
	// ManageReplicate announces that Keys (with current values Vals) are now
	// managed by replication; receivers install local replicas.
	ManageReplicate
	// ManageUnreplicate tells replicas to stop replicating Keys and return
	// their residual deltas to the home node.
	ManageUnreplicate
	// ManageDemoteAck answers an Unreplicate for one key: Vals holds the
	// replica's deltas that no ReplicaSync carried (empty: none). The deltas
	// it did sync need no copy here — those syncs precede the ack on the
	// key's stream.
	ManageDemoteAck
	// ManageLocalize asks the destination to relocate Keys to itself through
	// the ordinary Localize protocol: the home's controller decided the
	// destination dominates the keys' accesses, but only the destination can
	// initiate a relocation toward itself (it must queue the keys before the
	// transfer is underway).
	ManageLocalize
	// ManageSweep is a node-local tick a node sends to its own shards: the
	// classifier advances its epoch without ingesting a report, so replicated
	// keys whose home stopped receiving reports entirely still go cold and
	// get demoted. Keys carries a single shard-selector key (see the adaptive
	// controller).
	ManageSweep
)

var manageNames = [...]string{
	ManageReport:      "report",
	ManageReplicate:   "replicate",
	ManageUnreplicate: "unreplicate",
	ManageDemoteAck:   "demote-ack",
	ManageLocalize:    "localize-hint",
	ManageSweep:       "sweep",
}

func (k ManageKind) String() string {
	if int(k) < len(manageNames) {
		return manageNames[k]
	}
	return fmt.Sprintf("ManageKind(%d)", uint8(k))
}

// Manage is the adaptive-management control message: tracker reports flowing
// to home nodes and the per-key replication enter/exit protocol driven by the
// online controller. All operations are key-addressed — every key in one
// message belongs to the same server shard — so transitions stay FIFO on each
// (link, shard) stream with the operations of the keys they manage and with
// those keys' ReplicaSync and ReplicaRefresh traffic. Origin is the sending
// node. A Manage carries no clock: classifiers run on their own node's.
type Manage struct {
	Kind   ManageKind
	Origin int32
	Keys   []kv.Key
	Vals   []float32
}

const (
	headerBytes = 1 + 4 // kind + payload length prefix
	keyBytes    = 8
	valBytes    = 4
)

// Size returns the encoded size in bytes of m: the length of Encode(m).
func Size(m any) int { return len(Encode(m)) }

// Encode serializes m into a fresh byte slice.
func Encode(m any) []byte { return AppendTo(nil, m) }

// AppendTo appends the encoding of m to buf and returns the extended slice.
// It appends the header with a placeholder length, then every field, and
// patches the payload length into the header last. The steady-state encode
// path allocates nothing when buf has capacity (see GetBuf/PutBuf for the
// pooled-buffer protocol).
func AppendTo(buf []byte, m any) []byte {
	base := len(buf)
	w := writer{b: buf}
	switch t := m.(type) {
	case *Op:
		w.header(KindOp)
		w.u8(byte(t.Type))
		w.u64(t.ID)
		w.u32(uint32(t.Origin))
		w.u8(t.Hops)
		w.u8(boolByte(t.Lease))
		w.keys(t.Keys)
		w.vals(t.Vals)
	case *OpResp:
		w.header(KindOpResp)
		w.u8(byte(t.Type))
		w.u64(t.ID)
		w.u32(uint32(t.Responder))
		w.u32(t.LeaseTTL)
		w.keys(t.Keys)
		w.vals(t.Vals)
	case *Localize:
		w.header(KindLocalize)
		w.u64(t.ID)
		w.u32(uint32(t.Origin))
		w.keys(t.Keys)
	case *RelocInstruct:
		w.header(KindRelocInstruct)
		w.u64(t.ID)
		w.u32(uint32(t.Dest))
		w.keys(t.Keys)
	case *RelocTransfer:
		w.header(KindRelocTransfer)
		w.u64(t.ID)
		w.keys(t.Keys)
		w.vals(t.Vals)
	case *SspClock:
		w.header(KindSspClock)
		w.u32(uint32(t.Worker))
		w.u32(uint32(t.Clock))
	case *SspSync:
		w.header(KindSspSync)
		w.u64(t.ID)
		w.u32(uint32(t.Clock))
		w.keys(t.Keys)
		w.vals(t.Vals)
	case *Barrier:
		w.header(KindBarrier)
		w.u8(boolByte(t.Enter))
		w.u32(t.Seq)
		w.u32(uint32(t.Worker))
	case *Block:
		w.header(KindBlock)
		w.u32(uint32(t.ID))
		w.u32(uint32(t.Worker))
		w.vals(t.Vals)
	case *ReplicaSync:
		w.header(KindReplicaSync)
		w.u32(uint32(t.Origin))
		w.u32(t.Seq)
		w.keys(t.Keys)
		w.vals(t.Vals)
	case *ReplicaRefresh:
		w.header(KindReplicaRefresh)
		w.u32(uint32(t.Origin))
		w.u32(t.Ack)
		w.keys(t.Keys)
		w.vals(t.Vals)
	case *Manage:
		w.header(KindManage)
		w.u8(byte(t.Kind))
		w.u32(uint32(t.Origin))
		w.keys(t.Keys)
		w.vals(t.Vals)
	default:
		panic(fmt.Sprintf("msg: AppendTo on unknown message type %T", m))
	}
	binary.LittleEndian.PutUint32(w.b[base+1:], uint32(len(w.b)-base-headerBytes))
	return w.b
}

// writer appends little-endian fields to an encode buffer. The key and value
// lists grow the buffer once and store into the grown region.
type writer struct{ b []byte }

// header appends the kind and a payload length that AppendTo patches last.
func (w *writer) header(k Kind) { w.b = append(w.b, byte(k), 0, 0, 0, 0) }

func (w *writer) u8(v byte) { w.b = append(w.b, v) }

func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

func (w *writer) keys(keys []kv.Key) {
	w.u32(uint32(len(keys)))
	off := len(w.b)
	w.b = kv.Grow(w.b, len(keys)*keyBytes)
	b := w.b[off:]
	for i, k := range keys {
		binary.LittleEndian.PutUint64(b[i*keyBytes:], uint64(k))
	}
}

func (w *writer) vals(vals []float32) {
	w.u32(uint32(len(vals)))
	off := len(w.b)
	w.b = kv.Grow(w.b, len(vals)*valBytes)
	b := w.b[off:]
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[i*valBytes:], math.Float32bits(v))
	}
}

// Decode parses one encoded message into a fresh Scratch and returns it
// together with the number of bytes consumed. Every field read is
// bounds-checked and the payload must be consumed exactly, so Decode never
// panics and malformed input — from a socket or the fuzzer — yields an error.
func Decode(buf []byte) (any, int, error) { return decodeMsg(buf, new(Scratch)) }

// decodeMsg decodes one message into s: the message struct is s's one for
// its kind, and its Keys/Vals are backed by s's arenas.
func decodeMsg(buf []byte, s *Scratch) (any, int, error) {
	if len(buf) < headerBytes {
		return nil, 0, fmt.Errorf("msg: short buffer (%d bytes)", len(buf))
	}
	kind := Kind(buf[0])
	plen := int(binary.LittleEndian.Uint32(buf[1:5]))
	if plen < 0 || len(buf)-headerBytes < plen {
		return nil, 0, fmt.Errorf("msg: truncated %v payload: have %d, want %d", kind, len(buf)-headerBytes, plen)
	}
	d := &decoder{p: buf[headerBytes : headerBytes+plen], s: s}
	var m any
	switch kind {
	case KindOp:
		s.op = Op{Type: OpType(d.u8()), ID: d.u64(), Origin: int32(d.u32()),
			Hops: d.u8(), Lease: d.bool(), Keys: d.keys(), Vals: d.vals()}
		m = &s.op
	case KindOpResp:
		s.opResp = OpResp{Type: OpType(d.u8()), ID: d.u64(), Responder: int32(d.u32()),
			LeaseTTL: d.u32(), Keys: d.keys(), Vals: d.vals()}
		m = &s.opResp
	case KindLocalize:
		s.localize = Localize{ID: d.u64(), Origin: int32(d.u32()), Keys: d.keys()}
		m = &s.localize
	case KindRelocInstruct:
		s.instruct = RelocInstruct{ID: d.u64(), Dest: int32(d.u32()), Keys: d.keys()}
		m = &s.instruct
	case KindRelocTransfer:
		s.transfer = RelocTransfer{ID: d.u64(), Keys: d.keys(), Vals: d.vals()}
		m = &s.transfer
	case KindSspClock:
		s.sspClock = SspClock{Worker: int32(d.u32()), Clock: int32(d.u32())}
		m = &s.sspClock
	case KindSspSync:
		s.sspSync = SspSync{ID: d.u64(), Clock: int32(d.u32()), Keys: d.keys(), Vals: d.vals()}
		m = &s.sspSync
	case KindBarrier:
		s.barrier = Barrier{Enter: d.bool(), Seq: d.u32(), Worker: int32(d.u32())}
		m = &s.barrier
	case KindBlock:
		s.block = Block{ID: int32(d.u32()), Worker: int32(d.u32()), Vals: d.vals()}
		m = &s.block
	case KindReplicaSync:
		s.repSync = ReplicaSync{Origin: int32(d.u32()), Seq: d.u32(), Keys: d.keys(), Vals: d.vals()}
		m = &s.repSync
	case KindReplicaRefresh:
		s.repRefresh = ReplicaRefresh{Origin: int32(d.u32()), Ack: d.u32(), Keys: d.keys(), Vals: d.vals()}
		m = &s.repRefresh
	case KindManage:
		s.manage = Manage{Kind: ManageKind(d.u8()), Origin: int32(d.u32()), Keys: d.keys(), Vals: d.vals()}
		m = &s.manage
	default:
		return nil, 0, fmt.Errorf("msg: unknown message kind %d", kind)
	}
	if d.err != nil {
		return nil, 0, fmt.Errorf("msg: decoding %v: %w", kind, d.err)
	}
	if len(d.p) != 0 {
		return nil, 0, fmt.Errorf("msg: %d trailing payload bytes in %v", len(d.p), kind)
	}
	return m, headerBytes + plen, nil
}

// decoder is a bounds-checked cursor over a message payload. The first
// failed read latches err and all subsequent reads return zero values, so
// decode expressions can be written straight-line. Keys and vals decode
// into the attached scratch's arenas.
type decoder struct {
	p   []byte
	err error
	s   *Scratch
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated %s (%d bytes left)", what, len(d.p))
	}
}

func (d *decoder) u8() byte {
	if d.err != nil || len(d.p) < 1 {
		d.fail("byte")
		return 0
	}
	v := d.p[0]
	d.p = d.p[1:]
	return v
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.p) < 4 {
		d.fail("uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.p)
	d.p = d.p[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.p) < 8 {
		d.fail("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p)
	d.p = d.p[8:]
	return v
}

// keys reads a count-prefixed key list into the scratch's key arena; a zero
// count decodes to nil. The count is validated against the remaining payload
// before the arena grows (overflow-safe on 32-bit ints).
func (d *decoder) keys() []kv.Key {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.p)/keyBytes {
		d.fail("keys")
		return nil
	}
	if n == 0 {
		return nil
	}
	if cap(d.s.keys) < n {
		d.s.keys = make([]kv.Key, n)
	}
	keys := d.s.keys[:n]
	b := d.p[:n*keyBytes]
	for i := range keys {
		keys[i] = kv.Key(binary.LittleEndian.Uint64(b[i*keyBytes:]))
	}
	d.p = d.p[n*keyBytes:]
	return keys
}

// vals reads a count-prefixed float32 list into the scratch's value arena,
// validated like keys; a zero count decodes to nil.
func (d *decoder) vals() []float32 {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.p)/valBytes {
		d.fail("values")
		return nil
	}
	if n == 0 {
		return nil
	}
	if cap(d.s.vals) < n {
		d.s.vals = make([]float32, n)
	}
	vals := d.s.vals[:n]
	b := d.p[:n*valBytes]
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*valBytes:]))
	}
	d.p = d.p[n*valBytes:]
	return vals
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
