package msg

import (
	"bytes"
	"reflect"
	"testing"

	"lapse/internal/kv"
)

// seedMessages covers every wire Kind, including nil-vs-empty slice shapes.
func seedMessages() []any {
	return []any{
		&Op{Type: OpPull, ID: 1, Origin: 2, Hops: 3, Keys: []kv.Key{7, 1 << 40}},
		&Op{Type: OpPush, ID: 2, Keys: []kv.Key{5}, Vals: []float32{1.5, -2}},
		&Op{Type: OpPush, ID: 3, Keys: []kv.Key{}, Vals: []float32{}},
		&Op{Type: OpPull, ID: 12, Origin: 1, Lease: true, Keys: []kv.Key{13}},
		&OpResp{Type: OpPull, ID: 4, Responder: 1, Keys: []kv.Key{9}, Vals: []float32{0.25}},
		&OpResp{Type: OpPush, ID: 5, Responder: -1, Keys: []kv.Key{9}},
		&OpResp{Type: OpPull, ID: 13, Responder: 2, LeaseTTL: 5_000_000, Keys: []kv.Key{13}, Vals: []float32{1}},
		&Localize{ID: 6, Origin: 3, Keys: []kv.Key{1, 2, 3}},
		&RelocInstruct{ID: 7, Dest: 2, Keys: []kv.Key{4}},
		&RelocTransfer{ID: 8, Keys: []kv.Key{4}, Vals: []float32{1, 2}},
		&RelocTransfer{ID: 9, Keys: nil, Vals: nil},
		&SspClock{Worker: 11, Clock: 12},
		&SspSync{ID: 10, Clock: 2, Keys: []kv.Key{8}, Vals: []float32{3}},
		&SspSync{ID: 11, Clock: 0, Keys: []kv.Key{8}},
		&Barrier{Enter: true, Seq: 42, Worker: 3},
		&Barrier{Enter: false, Seq: 43, Worker: -1},
		&Block{ID: 2, Worker: 5, Vals: []float32{1, 2, 3}},
		&Block{ID: 3, Worker: 0},
		&ReplicaSync{Origin: 1, Seq: 7, Keys: []kv.Key{3, 1 << 33}, Vals: []float32{0.5, -1.25}},
		&ReplicaSync{Origin: 0, Seq: 0, Keys: nil, Vals: nil},
		&ReplicaRefresh{Origin: 2, Ack: 9, Keys: []kv.Key{4}, Vals: []float32{42}},
		&ReplicaRefresh{Origin: -1, Ack: 0, Keys: []kv.Key{}, Vals: []float32{}},
		&ReplicaRefresh{Origin: 0, Ack: 1, Keys: []kv.Key{4, 1 << 50}, Vals: []float32{7, -0.5}},
		&ReplicaRefresh{Origin: 1, Ack: 2, Keys: []kv.Key{3}},
		&Manage{Kind: ManageReport, Origin: 1, Keys: []kv.Key{2, 6}, Vals: []float32{32, 16}},
		&Manage{Kind: ManageDemoteAck, Origin: 2, Keys: []kv.Key{9}, Vals: []float32{1, 2}},
		&Manage{Kind: ManageUnreplicate, Origin: 0, Keys: nil, Vals: nil},
		&Manage{Kind: ManageLocalize, Origin: 3, Keys: []kv.Key{12}},
		&Manage{Kind: ManageSweep, Origin: 1, Keys: []kv.Key{2}},
		// A lease owner's ReplicaRefresh, drop form (no values) and refresh
		// form (Ack is the lease time left).
		&ReplicaRefresh{Origin: 2, Keys: []kv.Key{5, 1 << 41}},
		&ReplicaRefresh{Origin: 0, Keys: nil},
		&ReplicaRefresh{Origin: 1, Ack: 150_000, Keys: []kv.Key{7}, Vals: []float32{1.5, -2}},
		&ReplicaRefresh{Origin: 3, Ack: 1, Keys: []kv.Key{7, 11}, Vals: []float32{0.25}},
	}
}

// FuzzCodecRoundTrip feeds arbitrary bytes to Decode and checks the codec
// invariants on everything that parses: Decode never panics, Size matches
// the encoded length, and Encode∘Decode is a fixpoint (re-encoding the
// decoded message reproduces identical bytes, which also proves nil and
// zero-length slices share one canonical wire form).
func FuzzCodecRoundTrip(f *testing.F) {
	for _, m := range seedMessages() {
		f.Add(Encode(m))
	}
	// A few hand-broken frames: truncated payloads, bogus kinds/lengths.
	f.Add([]byte{byte(KindOp), 2, 0, 0, 0, 1, 2})
	f.Add([]byte{byte(KindSspSync), 0, 0, 0, 0})
	f.Add([]byte{99, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := Decode(data)
		if err != nil {
			return
		}
		if n < headerBytes || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		enc := Encode(m)
		if len(enc) != Size(m) {
			t.Fatalf("len(Encode) = %d, Size = %d for %#v", len(enc), Size(m), m)
		}
		m2, n2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of %#v failed: %v", m, err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		if reflect.TypeOf(m) != reflect.TypeOf(m2) {
			t.Fatalf("round trip changed type: %T -> %T", m, m2)
		}
		// Bit-level equality via the encoding (NaN payloads round-trip
		// bit-exactly but defeat reflect.DeepEqual).
		if enc2 := Encode(m2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixpoint:\n got %x\nwant %x", enc2, enc)
		}
		// The pooled paths are wire-identical to the plain ones: AppendTo
		// produces the same bytes and Scratch.Decode the same message.
		if enc3 := AppendTo(nil, m); !bytes.Equal(enc, enc3) {
			t.Fatalf("AppendTo diverges from Encode:\n got %x\nwant %x", enc3, enc)
		}
		s := GetScratch()
		m3, n3, err := s.Decode(data)
		if err != nil {
			t.Fatalf("Scratch.Decode rejects what Decode accepted: %v", err)
		}
		if n3 != n || !bytes.Equal(Encode(m3), enc) {
			t.Fatalf("Scratch.Decode diverges from Decode: %#v vs %#v", m3, m)
		}
		s.Release()
	})
}

// TestDecodeRejectsTruncatedPayloads pins the malformed-input handling the
// fuzzer relies on: payloads shorter than the fixed fields of their kind
// must return an error, not panic (they did before the decoder was
// bounds-checked), and trailing payload bytes are rejected.
func TestDecodeRejectsTruncatedPayloads(t *testing.T) {
	for _, m := range seedMessages() {
		enc := Encode(m)
		// Truncate the payload at every length while keeping the length
		// prefix consistent, so only field-level checks can catch it.
		for plen := 0; plen < len(enc)-headerBytes; plen++ {
			frame := append([]byte{enc[0], byte(plen), byte(plen >> 8), byte(plen >> 16), byte(plen >> 24)}, enc[headerBytes:headerBytes+plen]...)
			if _, _, err := Decode(frame); err == nil {
				t.Errorf("%T: truncated payload of %d bytes decoded successfully", m, plen)
			}
		}
		// One trailing byte inside the declared payload.
		padded := append([]byte{enc[0]}, byte(len(enc)-headerBytes+1), byte((len(enc)-headerBytes+1)>>8), 0, 0)
		padded = append(padded, enc[headerBytes:]...)
		padded = append(padded, 0xFF)
		if _, _, err := Decode(padded); err == nil {
			t.Errorf("%T: trailing payload byte decoded successfully", m)
		}
	}
}
