package protocol

import (
	"bytes"
	"testing"

	"coolstream/internal/buffer"
)

// seedMessages is the fuzz corpus: one valid message per wire shape.
func seedMessages() []Message {
	seedMsgs := []Message{
		{Type: TypePartnerRequest, From: 1, To: 2},
		{Type: TypePartnerReject, From: 2, To: 1},
		{Type: TypePartnerReject, From: 2, To: 1, Entries: []PeerEntry{
			{ID: 7, JoinedAtMs: 12, PartnerCount: 2, Addr: "127.0.0.1:9007"},
			{ID: 8},
		}},
		{Type: TypeMCacheRequest, From: 1, To: -1, Want: 20},
		{Type: TypeSubscribe, From: 3, To: 4, SubStream: 2, StartSeq: 100},
		{Type: TypeBlockPush, From: 5, To: 6, SubStream: 1, StartSeq: 7, Payload: []byte("data")},
	}
	bm := buffer.NewBufferMap(4)
	bm.Latest = []int64{1, 2, 3, 4}
	seedMsgs = append(seedMsgs, Message{Type: TypeBMExchange, From: 9, To: 10, BM: bm})
	seedMsgs = append(seedMsgs,
		Message{Type: TypeBMAck, From: 2, To: 1, AckEpoch: 3},
		Message{Type: TypeBMDelta, From: 1, To: 2,
			Delta: BMDelta{Epoch: 1, Absolute: true, Lanes: []int64{5, 6, 7}, Sub: []bool{true, false, true}}},
		Message{Type: TypeBMDelta, From: -1, To: 400,
			Delta: BMDelta{Epoch: 9, Lanes: []int64{1, 1, 1}}},
		Message{Type: TypeBMDelta, From: 3, To: 4,
			Delta: BMDelta{Epoch: 2, Lanes: []int64{0, -2, 4}, Sub: []bool{false, true, true}}},
	)
	return seedMsgs
}

// FuzzUnmarshal asserts the codec never panics on arbitrary bytes and
// that every message it accepts re-marshals byte-identically.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range seedMessages() {
		data, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		// Differential: the scanning decoder must agree with the
		// reference decoder on accept/reject for every input.
		var m2 Message
		err2 := DecodeMessage(data, &m2)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("decoders disagree: Unmarshal=%v DecodeMessage=%v", err, err2)
		}
		if err != nil {
			return
		}
		again, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted message fails to marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("marshal not canonical:\n% x\n% x", data, again)
		}
		// And the append encoder agrees on the decoded value.
		fast, err := AppendMessage(nil, m2)
		if err != nil || !bytes.Equal(fast, data) {
			t.Fatalf("append encoder diverges (%v):\n% x\n% x", err, data, fast)
		}
	})
}
