package protocol

import (
	"bytes"
	"io"
	"net"
	"testing"
	"testing/quick"

	"coolstream/internal/netmodel"
	"coolstream/internal/xrand"
)

// allTypes enumerates every message type the codec knows.
var allTypes = []MsgType{
	TypeMCacheRequest, TypeMCacheReply, TypePartnerRequest, TypePartnerAccept,
	TypePartnerReject, TypeBMExchange, TypeSubscribe, TypeUnsubscribe,
	TypeLeave, TypeBlockPush, TypePing, TypeBMDelta, TypeBMAck,
}

// genMessage builds a random valid message of the given type.
func genMessage(r *xrand.RNG, typ MsgType) Message {
	m := Message{Type: typ, From: int32(r.Intn(2000)) - 1, To: int32(r.Intn(2000)) - 1}
	switch typ {
	case TypeMCacheRequest:
		m.Want = int16(1 + r.Intn(100))
	case TypeMCacheReply, TypePartnerReject:
		m.Entries = make([]PeerEntry, r.Intn(10))
		for i := range m.Entries {
			m.Entries[i] = PeerEntry{
				ID:           int32(r.Intn(1 << 20)),
				Class:        netmodel.UserClass(r.Intn(netmodel.NumClasses)),
				JoinedAtMs:   r.Int63n(1 << 40),
				PartnerCount: int16(r.Intn(50)),
			}
			if r.Bool(0.5) {
				m.Entries[i].Addr = "10.0.0.1:9000"
			}
		}
	case TypePartnerRequest:
		if r.Bool(0.7) {
			m.Addr = "127.0.0.1:7000"
		}
	case TypeBMExchange:
		m.BM = randomBM(r, 1+r.Intn(10))
	case TypeSubscribe:
		m.SubStream = int16(r.Intn(8))
		m.StartSeq = r.Int63n(1 << 40)
	case TypeUnsubscribe:
		m.SubStream = int16(r.Intn(8))
	case TypeBlockPush:
		m.SubStream = int16(r.Intn(8))
		m.StartSeq = r.Int63n(1 << 40)
		m.Payload = make([]byte, 1+r.Intn(600))
		for i := range m.Payload {
			m.Payload[i] = byte(r.Intn(256))
		}
	case TypeBMDelta:
		k := 1 + r.Intn(8)
		if r.Bool(0.4) {
			bm := randomBM(r, k)
			d, _ := KeyBM(bm, uint8(r.Intn(256)))
			m.Delta = d
		} else {
			prev := randomBM(r, k)
			cur := prev.Clone()
			for j := range cur.Latest {
				cur.Latest[j] += r.Int63n(3)
			}
			if r.Bool(0.3) {
				cur.Subscribed[r.Intn(k)] = !cur.Subscribed[r.Intn(k)]
			}
			d, _ := DiffBM(prev, cur, uint8(r.Intn(256)))
			m.Delta = d
		}
	case TypeBMAck:
		m.AckEpoch = uint8(r.Intn(256))
	}
	return m
}

// TestAppendMessageMatchesMarshal is the encoder half of the
// differential contract: byte-identical output for every type.
func TestAppendMessageMatchesMarshal(t *testing.T) {
	r := xrand.New(11)
	for round := 0; round < 500; round++ {
		typ := allTypes[r.Intn(len(allTypes))]
		m := genMessage(r, typ)
		ref, err := Marshal(m)
		if err != nil {
			t.Fatalf("%v: Marshal: %v", typ, err)
		}
		got, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%v: AppendMessage: %v", typ, err)
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("%v encoders differ:\nref % x\ngot % x", typ, ref, got)
		}
		// Appending after existing bytes must not disturb the prefix.
		withPrefix, err := AppendMessage([]byte{0xAA, 0xBB}, m)
		if err != nil || !bytes.Equal(withPrefix, append([]byte{0xAA, 0xBB}, ref...)) {
			t.Fatalf("%v: prefix append broken (%v)", typ, err)
		}
	}
}

// TestDecodeMessageMatchesUnmarshal is the decoder half: over valid
// encodings and random mutations of them, both decoders agree on
// accept/reject, and accepted inputs re-marshal identically.
func TestDecodeMessageMatchesUnmarshal(t *testing.T) {
	r := xrand.New(23)
	var reused Message // deliberately long-lived to exercise slice reuse
	for round := 0; round < 2000; round++ {
		typ := allTypes[r.Intn(len(allTypes))]
		data, err := Marshal(genMessage(r, typ))
		if err != nil {
			t.Fatal(err)
		}
		// Half the rounds: corrupt the bytes.
		if r.Bool(0.5) {
			switch r.Intn(3) {
			case 0: // flip a byte
				data[r.Intn(len(data))] ^= byte(1 + r.Intn(255))
			case 1: // truncate
				data = data[:r.Intn(len(data))]
			case 2: // append garbage
				data = append(data, byte(r.Intn(256)))
			}
		}
		ref, refErr := Unmarshal(data)
		gotErr := DecodeMessage(data, &reused)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("decoders disagree on % x:\nUnmarshal: %v\nDecodeMessage: %v", data, refErr, gotErr)
		}
		if refErr != nil {
			continue
		}
		refBytes, err := Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := Marshal(reused)
		if err != nil {
			t.Fatalf("decoded message fails to re-marshal: %v", err)
		}
		if !bytes.Equal(refBytes, gotBytes) || !bytes.Equal(refBytes, data) {
			t.Fatalf("decoded values differ on % x", data)
		}
	}
}

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	r := xrand.New(37)
	for round := 0; round < 200; round++ {
		m := genMessage(r, allTypes[r.Intn(len(allTypes))])
		framed, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		if err := WriteFrame(&w, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(framed, w.Bytes()) {
			t.Fatalf("frame encodings differ")
		}
		// And the frame reads back.
		got, err := NewFrameReader(bytes.NewReader(framed)).Read()
		if err != nil {
			t.Fatal(err)
		}
		again, err := Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, framed[4:]) {
			t.Fatal("frame round trip not canonical")
		}
	}
}

// TestWriteFrameSingleWrite asserts the whole point of AppendFrame:
// one Write call per frame.
func TestWriteFrameSingleWrite(t *testing.T) {
	var calls int
	w := writerFunc(func(p []byte) (int, error) { calls++; return len(p), nil })
	if err := WriteFrame(w, Message{Type: TypePing, From: 1, To: 2}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("WriteFrame issued %d writes", calls)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestFrameReaderLimit(t *testing.T) {
	big := Message{Type: TypeBlockPush, From: 1, To: 2, SubStream: 0, StartSeq: 1,
		Payload: make([]byte, 4096)}
	framed, err := AppendFrame(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	// Under the default limit it reads fine.
	if _, err := NewFrameReader(bytes.NewReader(framed)).Read(); err != nil {
		t.Fatal(err)
	}
	// A tight per-listener bound rejects it before reading the body.
	fr := NewFrameReaderLimit(bytes.NewReader(framed), 1024)
	if _, err := fr.Read(); err == nil {
		t.Fatal("oversized frame accepted under tight limit")
	}
	// The rejection happens from the header alone: 4 header bytes is
	// enough input to get the error even with no body present.
	fr = NewFrameReaderLimit(bytes.NewReader(framed[:4]), 1024)
	if _, err := fr.Read(); err == nil || err == io.ErrUnexpectedEOF {
		t.Fatalf("want early limit rejection, got %v", err)
	}
}

// TestFrameReaderZeroAllocSteadyState locks in the zero-alloc
// contract: after warmup, ReadInto and AppendFrame allocate nothing
// for the hot message types.
func TestFrameReaderZeroAllocSteadyState(t *testing.T) {
	bm := randomBM(xrand.New(5), 6)
	d, _ := KeyBM(bm, 1)
	hot := []Message{
		{Type: TypeBlockPush, From: 1, To: 2, SubStream: 3, StartSeq: 9, Payload: make([]byte, 800)},
		{Type: TypeBMDelta, From: 1, To: 2, Delta: d},
		{Type: TypeBMExchange, From: 1, To: 2, BM: bm},
		{Type: TypeBMAck, From: 2, To: 1, AckEpoch: 1},
		{Type: TypePing, From: 1, To: 2},
	}
	for _, m := range hot {
		m := m
		var stream bytes.Buffer
		const frames = 120
		for i := 0; i < frames; i++ {
			if err := WriteFrame(&stream, m); err != nil {
				t.Fatal(err)
			}
		}
		fr := NewFrameReader(bytes.NewReader(stream.Bytes()))
		var dst Message
		// Warm up slice capacities.
		for i := 0; i < 10; i++ {
			if err := fr.ReadInto(&dst); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := fr.ReadInto(&dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%v: ReadInto allocates %.1f/op at steady state", m.Type, allocs)
		}

		buf := make([]byte, 0, 4096)
		allocs = testing.AllocsPerRun(100, func() {
			var err error
			buf, err = AppendFrame(buf[:0], m)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%v: AppendFrame allocates %.1f/op at steady state", m.Type, allocs)
		}
	}

	// A partner connection carries the hot types interleaved — block,
	// block, delta, ack, block, full map … — and a relative delta has
	// no bitmap, so each type must find the storage it left behind
	// several frames ago, not only what the previous frame held.
	rel := BMDelta{Epoch: 1, Lanes: []int64{1, 0, 2, 0, 0, 1}}
	mix := []Message{hot[0], hot[0], {Type: TypeBMDelta, From: 1, To: 2, Delta: rel}, hot[3],
		hot[0], hot[1], hot[4], hot[2]}
	var wire []byte
	const rounds = 40
	for i := 0; i < rounds; i++ {
		for _, m := range mix {
			var err error
			if wire, err = AppendFrame(wire, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	fr := NewFrameReader(bytes.NewReader(wire))
	var dst Message
	readRound := func() {
		for _, want := range mix {
			if err := fr.ReadInto(&dst); err != nil {
				t.Fatal(err)
			}
			if dst.Type != want.Type || (dst.Delta.Sub == nil) != (want.Delta.Sub == nil) {
				t.Fatalf("decoded %v (sub nil %v), want %v (sub nil %v)",
					dst.Type, dst.Delta.Sub == nil, want.Type, want.Delta.Sub == nil)
			}
		}
	}
	readRound() // warm up: every slice reaches its size
	if allocs := testing.AllocsPerRun(rounds-5, readRound); allocs > 0 {
		t.Errorf("interleaved stream: ReadInto allocates %.2f per %d frames at steady state", allocs, len(mix))
	}
}

// TestFrameReaderSparesNeverAliasAMessage: storage the reader keeps
// between frames is never storage a returned message still points at —
// Read's messages are the caller's to keep, also around ReadInto calls.
func TestFrameReaderSparesNeverAliasAMessage(t *testing.T) {
	push := func(seq int64, fill byte) Message {
		return Message{Type: TypeBlockPush, From: 1, To: 2, StartSeq: seq, Payload: bytes.Repeat([]byte{fill}, 64)}
	}
	var wire []byte
	for _, m := range []Message{push(1, 0xA1), {Type: TypePing, From: 1, To: 2}, push(2, 0xB2), push(3, 0xC3)} {
		var err error
		if wire, err = AppendFrame(wire, m); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(wire))
	var reused Message
	if err := fr.ReadInto(&reused); err != nil { // block 1: reused owns a payload
		t.Fatal(err)
	}
	if err := fr.ReadInto(&reused); err != nil { // ping: the payload moves to the reader
		t.Fatal(err)
	}
	kept, err := fr.Read() // block 2 leaves with that storage
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.ReadInto(&reused); err != nil { // block 3 must not land on block 2
		t.Fatal(err)
	}
	if kept.StartSeq != 2 || !bytes.Equal(kept.Payload, bytes.Repeat([]byte{0xB2}, 64)) {
		t.Fatalf("message returned by Read was overwritten: seq %d payload % x…", kept.StartSeq, kept.Payload[:4])
	}
	if reused.StartSeq != 3 || reused.Payload[0] != 0xC3 {
		t.Fatalf("reused message holds seq %d payload % x…", reused.StartSeq, reused.Payload[:4])
	}
}

// TestFrameReaderOverTCP exercises the reader against a real socket
// (header/body split across TCP segments included).
func TestFrameReaderOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	msgs := []Message{
		{Type: TypePartnerRequest, From: 1, To: 2, Addr: "127.0.0.1:1"},
		{Type: TypeBlockPush, From: 1, To: 2, SubStream: 0, StartSeq: 5, Payload: bytes.Repeat([]byte{7}, 1500)},
		{Type: TypeLeave, From: 1, To: 2},
	}
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer c.Close()
		for _, m := range msgs {
			if err := WriteFrame(c, m); err != nil {
				return
			}
		}
	}()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fr := NewFrameReader(c)
	var got Message
	for i, want := range msgs {
		if err := fr.ReadInto(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		wb, _ := Marshal(want)
		gb, _ := Marshal(got)
		if !bytes.Equal(wb, gb) {
			t.Fatalf("frame %d differs", i)
		}
	}
	if err := fr.ReadInto(&got); err != io.EOF {
		t.Fatalf("want EOF after close, got %v", err)
	}
}

// TestDecodePropertyAllTypes is a quick-check over the full pipeline:
// gen → append → frame → read-into → re-marshal identical.
func TestDecodePropertyAllTypes(t *testing.T) {
	var reused Message
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m := genMessage(r, allTypes[r.Intn(len(allTypes))])
		framed, err := AppendFrame(nil, m)
		if err != nil {
			return false
		}
		fr := NewFrameReader(bytes.NewReader(framed))
		if err := fr.ReadInto(&reused); err != nil {
			return false
		}
		a, err1 := Marshal(m)
		b, err2 := Marshal(reused)
		return err1 == nil && err2 == nil && bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendFrameBlockPush(b *testing.B) {
	m := Message{Type: TypeBlockPush, From: 1, To: 2, SubStream: 3, StartSeq: 9,
		Payload: make([]byte, 1250)}
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.SetBytes(int64(len(m.Payload)))
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalWriteFrameBlockPush(b *testing.B) {
	m := Message{Type: TypeBlockPush, From: 1, To: 2, SubStream: 3, StartSeq: 9,
		Payload: make([]byte, 1250)}
	b.ReportAllocs()
	b.SetBytes(int64(len(m.Payload)))
	for i := 0; i < b.N; i++ {
		data, err := Marshal(m)
		if err != nil {
			b.Fatal(err)
		}
		_ = data
	}
}

func BenchmarkReadIntoBlockPush(b *testing.B) {
	m := Message{Type: TypeBlockPush, From: 1, To: 2, SubStream: 3, StartSeq: 9,
		Payload: make([]byte, 1250)}
	framed, err := AppendFrame(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	stream := bytes.Repeat(framed, 1)
	rd := bytes.NewReader(stream)
	fr := NewFrameReader(rd)
	var dst Message
	b.ReportAllocs()
	b.SetBytes(int64(len(m.Payload)))
	for i := 0; i < b.N; i++ {
		rd.Reset(stream)
		fr.br.Reset(rd)
		if err := fr.ReadInto(&dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBMDeltaEncode(b *testing.B) {
	bm := randomBM(xrand.New(1), 6)
	next := bm.Clone()
	for j := range next.Latest {
		next.Latest[j]++
	}
	d, err := DiffBM(bm, next, 3)
	if err != nil {
		b.Fatal(err)
	}
	m := Message{Type: TypeBMDelta, From: 40, To: 41, Delta: d}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err = AppendFrame(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}
