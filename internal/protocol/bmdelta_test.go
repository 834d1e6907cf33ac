package protocol

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"coolstream/internal/buffer"
	"coolstream/internal/xrand"
)

func mustMarshal(t *testing.T, m Message) []byte {
	t.Helper()
	data, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", m.Type, err)
	}
	return data
}

func TestBMDeltaRoundTrip(t *testing.T) {
	cases := []BMDelta{
		{Epoch: 0, Absolute: true, Lanes: []int64{0, 0, 0, 0}, Sub: []bool{false, false, false, false}},
		{Epoch: 7, Absolute: true, Lanes: []int64{1, -1, 1 << 40, 3}, Sub: []bool{true, false, true, true}},
		{Epoch: 1, Lanes: []int64{1, 1, 1, 1}},                                         // uniform
		{Epoch: 2, Lanes: []int64{0, 0, 0, 0}},                                         // uniform zero heartbeat
		{Epoch: 3, Lanes: []int64{2, 0, 1, 0}},                                         // bitmap
		{Epoch: 4, Lanes: []int64{-3, 5, 0, 0}, Sub: []bool{true, true, false, false}}, // bitmap + sub
		{Epoch: 255, Lanes: []int64{1}},                                                // K=1 (uniform by construction)
	}
	for i, d := range cases {
		m := Message{Type: TypeBMDelta, From: 3, To: -1, Delta: d}
		data := mustMarshal(t, m)
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Delta.Epoch != d.Epoch || got.Delta.Absolute != d.Absolute ||
			!reflect.DeepEqual(got.Delta.Lanes, d.Lanes) ||
			!reflect.DeepEqual(got.Delta.Sub, d.Sub) {
			t.Fatalf("case %d: got %+v want %+v", i, got.Delta, d)
		}
		if got.From != 3 || got.To != -1 {
			t.Fatalf("case %d: header %d→%d", i, got.From, got.To)
		}
	}
}

func TestBMAckRoundTrip(t *testing.T) {
	for _, epoch := range []uint8{0, 1, 255} {
		data := mustMarshal(t, Message{Type: TypeBMAck, From: -1, To: 9, AckEpoch: epoch})
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.AckEpoch != epoch || got.From != -1 || got.To != 9 {
			t.Fatalf("got %+v", got)
		}
	}
}

func TestBMDeltaCompactness(t *testing.T) {
	// The whole point: a steady-state delta frame must be a small
	// fraction of the full map frame it replaces.
	k := 6
	bm := buffer.NewBufferMap(k)
	for j := range bm.Latest {
		bm.Latest[j] = int64(100000 + j)
		bm.Subscribed[j] = j%2 == 0
	}
	full, err := AppendFrame(nil, Message{Type: TypeBMExchange, From: 42, To: 17, BM: bm})
	if err != nil {
		t.Fatal(err)
	}
	next := bm.Clone()
	for j := range next.Latest {
		next.Latest[j]++
	}
	d, err := DiffBM(bm, next, 1)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := AppendFrame(nil, Message{Type: TypeBMDelta, From: 42, To: 17, Delta: d})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 5*len(delta) {
		t.Fatalf("delta frame %dB not 5x smaller than full frame %dB", len(delta), len(full))
	}
}

func TestBMDeltaMarshalRejectsInvalid(t *testing.T) {
	bad := []BMDelta{
		{},                                  // no lanes
		{Lanes: make([]int64, 256)},         // too many lanes
		{Absolute: true, Lanes: []int64{1}}, // keyframe without sub
		{Lanes: []int64{1, 2}, Sub: []bool{true}}, // sub/lane mismatch
	}
	for i, d := range bad {
		if _, err := Marshal(Message{Type: TypeBMDelta, Delta: d}); err == nil {
			t.Errorf("case %d marshalled", i)
		}
	}
}

// TestBMDeltaRejectsNonCanonical feeds hand-built malformed payloads:
// each must be rejected, preserving the fuzz invariant that accepted
// bytes re-marshal identically.
func TestBMDeltaRejectsNonCanonical(t *testing.T) {
	// header: type, from=1 (zigzag 0x02), to=2 (zigzag 0x04)
	hdr := []byte{byte(TypeBMDelta), 0x02, 0x04}
	pay := func(p ...byte) []byte { return append(append([]byte{}, hdr...), p...) }
	cases := map[string][]byte{
		"zero lanes":         pay(0, 0, 0),
		"unknown flag":       pay(0, 0x08, 1, 0x00),
		"abs+uniform":        pay(0, bmdAbs|bmdUniform, 1, 0x02),
		"abs without sub":    pay(0, bmdAbs, 1, 0x02),
		"overlong varint":    pay(0, bmdUniform, 1, 0x80, 0x00), // 0 in two bytes
		"zero increment":     pay(0, 0, 2, 0x01, 0x00, 0x02),    // bitmap {lane0}, inc 0
		"uniform via bitmap": pay(0, 0, 2, 0x03, 0x02, 0x02),    // both lanes +1 → must use uniform form
		"empty bitmap":       pay(0, 0, 2, 0x00),                // all-zero → must use uniform form
		"bitmap tail bits":   pay(0, 0, 2, 0x84, 0x02),          // bit past lane 1 (plus lane 2 set)
		"sub tail bits":      pay(0, bmdUniform|bmdSub, 2, 0x02, 0xF0),
		"truncated lanes":    pay(0, bmdAbs|bmdSub, 3, 0x02, 0x02),
		"trailing bytes":     pay(0, bmdUniform, 1, 0x02, 0xAA),
		"from out of range":  append([]byte{byte(TypeBMDelta), 0x80, 0x80, 0x80, 0x80, 0x20, 0x04}, 0, bmdUniform, 1, 0x02),
		"truncated ack":      {byte(TypeBMAck), 0x02, 0x04},
		"trailing ack":       {byte(TypeBMAck), 0x02, 0x04, 1, 2},
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// randomBM builds a random valid buffer map over k lanes.
func randomBM(r *xrand.RNG, k int) buffer.BufferMap {
	bm := buffer.NewBufferMap(k)
	for j := 0; j < k; j++ {
		bm.Latest[j] = r.Int63n(1 << 30)
		bm.Subscribed[j] = r.Bool(0.5)
	}
	return bm
}

// stepBM mutates a sender's live map the way one BM period might.
func stepBM(r *xrand.RNG, cur buffer.BufferMap) {
	switch r.Intn(4) {
	case 0: // uniform advance (the steady-state shape)
		inc := r.Int63n(3)
		for j := range cur.Latest {
			cur.Latest[j] += inc
		}
	case 1: // skewed advance
		for j := range cur.Latest {
			cur.Latest[j] += r.Int63n(4)
		}
	case 2: // subscription churn
		cur.Subscribed[r.Intn(cur.K())] = r.Bool(0.5)
	case 3: // stall — no change
	}
}

// TestBMDeltaReconstructionProperty simulates the sender/receiver state
// machines across random interleavings of keyframes, deltas, stalls,
// and reconnects (state loss): after every applied update the receiver
// holds exactly the sender's map, and each update survives a
// marshal/unmarshal round trip canonically.
func TestBMDeltaReconstructionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		k := 1 + r.Intn(8)
		cur := randomBM(r, k)
		var sent buffer.BufferMap // sender's record of the last update on the conn
		var epoch uint8
		haveBase := false

		// Receiver state.
		var rx buffer.BufferMap
		rxHave := false
		var rxEpoch uint8

		for step := 0; step < 40; step++ {
			stepBM(r, cur)

			// Occasionally the connection "drops": both sides lose
			// per-conn state, forcing a keyframe.
			if r.Bool(0.1) {
				haveBase = false
				rxHave = false
			}

			var d BMDelta
			var err error
			if !haveBase || r.Bool(0.15) { // keyframe: forced or periodic
				epoch++
				d, err = KeyBM(cur, epoch)
			} else {
				d, err = DiffBM(sent, cur, epoch)
			}
			if err != nil {
				t.Logf("build: %v", err)
				return false
			}
			sent = cur.Clone()
			haveBase = true

			// Wire round trip, canonically.
			data, err := Marshal(Message{Type: TypeBMDelta, From: 1, To: 2, Delta: d})
			if err != nil {
				t.Logf("marshal: %v", err)
				return false
			}
			got, err := Unmarshal(data)
			if err != nil {
				t.Logf("unmarshal: %v", err)
				return false
			}
			if again, _ := Marshal(got); !bytes.Equal(again, data) {
				t.Logf("not canonical")
				return false
			}

			// Receiver applies, with the epoch guard.
			rd := got.Delta
			if rd.Absolute {
				rx, err = ApplyBMDelta(buffer.BufferMap{}, rd)
				rxHave, rxEpoch = err == nil, rd.Epoch
			} else if rxHave && rd.Epoch == rxEpoch && rx.K() == rd.K() {
				rx, err = ApplyBMDelta(rx, rd)
			} else {
				continue // dropped relative delta (no base) — legal, just unsynced
			}
			if err != nil {
				t.Logf("apply: %v", err)
				return false
			}
			if !reflect.DeepEqual(rx.Latest, cur.Latest) || !reflect.DeepEqual(rx.Subscribed, cur.Subscribed) {
				t.Logf("step %d: receiver %v/%v sender %v/%v", step, rx.Latest, rx.Subscribed, cur.Latest, cur.Subscribed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBMDeltaRejectsMismatchedBase(t *testing.T) {
	base := buffer.NewBufferMap(4)
	if _, err := ApplyBMDelta(base, BMDelta{Lanes: []int64{1, 2}}); err == nil {
		t.Fatal("K mismatch accepted")
	}
	if _, err := ApplyBMDelta(buffer.BufferMap{}, BMDelta{Lanes: []int64{1}}); err == nil {
		t.Fatal("relative delta over empty base accepted")
	}
}

func TestApplyBMDeltaDoesNotAliasBase(t *testing.T) {
	base := buffer.NewBufferMap(2)
	base.Latest[0] = 5
	d := BMDelta{Lanes: []int64{1, 0}, Sub: []bool{true, false}}
	out, err := ApplyBMDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	out.Latest[0] = 999
	out.Subscribed[0] = false
	if base.Latest[0] != 5 || base.Subscribed[0] {
		t.Fatal("apply aliased the base map")
	}
}

// TestBMDeltaInPlaceMatchesWrappers is the differential property behind
// the live stack's in-place map exchange: over random map sequences
// (TestBMDeltaReconstructionProperty's generator) a sender that diffs
// into one long-lived scratch and a receiver that applies into one
// long-lived map produce the deltas, the wire bytes and the maps of the
// allocating wrapper forms.
func TestBMDeltaInPlaceMatchesWrappers(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		k := 1 + r.Intn(8)
		cur := randomBM(r, k)
		sent := cur.Clone()
		lanes, sub := make([]int64, 0, k), make([]bool, 0, k)
		var epoch uint8
		var rx, rxIn buffer.BufferMap
		for step := 0; step < 40; step++ {
			stepBM(r, cur)
			var want, got BMDelta
			var errW, errG error
			if step == 0 || r.Bool(0.15) {
				epoch++
				want, errW = KeyBM(cur, epoch)
				got, errG = KeyBMInto(lanes, sub, cur, epoch)
			} else {
				want, errW = DiffBM(sent, cur, epoch)
				got, errG = DiffBMInto(lanes, sub, sent, cur, epoch)
			}
			if errW != nil || errG != nil {
				t.Logf("build: %v / %v", errW, errG)
				return false
			}
			if !reflect.DeepEqual(want, got) {
				t.Logf("step %d: wrapper %+v, in place %+v", step, want, got)
				return false
			}
			if &got.Lanes[0] != &lanes[:1][0] || (got.Sub != nil && &got.Sub[0] != &sub[:1][0]) {
				t.Logf("step %d: in-place delta left the caller's storage", step)
				return false
			}
			a, _ := Marshal(Message{Type: TypeBMDelta, From: 1, To: 2, Delta: want})
			b, _ := AppendMessage(nil, Message{Type: TypeBMDelta, From: 1, To: 2, Delta: got})
			if !bytes.Equal(a, b) {
				t.Logf("step %d: bytes differ", step)
				return false
			}
			copy(sent.Latest, cur.Latest)
			copy(sent.Subscribed, cur.Subscribed)

			var err error
			if rx, err = ApplyBMDelta(rx, want); err != nil {
				t.Logf("apply: %v", err)
				return false
			}
			if err := ApplyBMDeltaInto(&rxIn, got); err != nil {
				t.Logf("apply in place: %v", err)
				return false
			}
			if !reflect.DeepEqual(rx, rxIn) || !reflect.DeepEqual(rxIn.Latest, cur.Latest) {
				t.Logf("step %d: wrapper map %v, in-place map %v, sender %v", step, rx, rxIn, cur)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBMDeltaIntoLeavesMapOnError: a delta that cannot apply must
// not half-apply — the live receiver keeps the map it had.
func TestApplyBMDeltaIntoLeavesMapOnError(t *testing.T) {
	bm := buffer.NewBufferMap(4)
	bm.Latest[0] = 7
	for _, d := range []BMDelta{
		{Lanes: []int64{1, 2}},                          // K mismatch
		{Lanes: []int64{1, 1, 1, 1}, Sub: []bool{true}}, // sub/lane mismatch
		{Absolute: true, Lanes: []int64{9, 9, 9, 9}},    // keyframe without bitmap
	} {
		if err := ApplyBMDeltaInto(&bm, d); err == nil {
			t.Fatalf("%+v applied", d)
		}
		if bm.K() != 4 || bm.Latest[0] != 7 || bm.Latest[1] != 0 {
			t.Fatalf("%+v: map changed to %v", d, bm)
		}
	}
}

// TestBMKernelsZeroAlloc: with K-wide storage in the caller's hands,
// diff, keyframe and apply allocate nothing — the per-partner,
// per-period cost of the live BM loop and of every delta received.
func TestBMKernelsZeroAlloc(t *testing.T) {
	r := xrand.New(11)
	const k = 16
	prev, cur := randomBM(r, k), randomBM(r, k)
	cur.Subscribed[3] = !prev.Subscribed[3] // the bitmap travels too
	lanes, sub := make([]int64, 0, k), make([]bool, 0, k)
	rx := buffer.NewBufferMap(k)
	var d BMDelta
	cases := map[string]func(){
		"DiffBMInto": func() { d, _ = DiffBMInto(lanes, sub, prev, cur, 1) },
		"KeyBMInto":  func() { d, _ = KeyBMInto(lanes, sub, cur, 1) },
		"ApplyBMDeltaInto keyframe": func() {
			d, _ = KeyBMInto(lanes, sub, cur, 1)
			if err := ApplyBMDeltaInto(&rx, d); err != nil {
				t.Fatal(err)
			}
		},
		"ApplyBMDeltaInto relative": func() {
			d, _ = DiffBMInto(lanes, sub, prev, cur, 1)
			if err := ApplyBMDeltaInto(&rx, d); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs > 0 {
			t.Errorf("%s allocates %.1f/op with caller-owned storage", name, allocs)
		}
	}
	if d.K() != k {
		t.Fatalf("kernel produced %d lanes", d.K())
	}
}
