package netpeer

import (
	"testing"
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/netboot"
	"coolstream/internal/protocol"
)

// TestSupersedingConnStartsWithoutBufferMap: what a node knows about a
// partner lives on the connection it arrived on. A same-direction
// reconnect supersedes the old conn, and must not inherit its buffer
// map — the delta epoch that guarded that map died with it — until the
// new conn's own keyframe arrives.
func TestSupersedingConnStartsWithoutBufferMap(t *testing.T) {
	srcCfg := testConfig(0, 0)
	srcCfg.BMPeriod = 400 * time.Millisecond
	src := mustNode(t, srcCfg)
	addr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}
	peer := mustNode(t, testConfig(1, 0))
	mustListen(t, peer)
	if _, err := peer.Connect(addr); err != nil {
		t.Fatal(err)
	}
	// The poll returns within 20ms of a BM tick, so the reconnect below
	// lands well inside the 400ms before the next one.
	waitFor(t, 2*time.Second, func() bool { _, ok := peer.PartnerBM(0); return ok },
		"no buffer map on the first connection")
	first := peer.connOf(0)
	if _, err := peer.Connect(addr); err != nil {
		t.Fatal(err)
	}
	if peer.connOf(0) == first {
		t.Fatal("reconnect did not supersede the old connection")
	}
	if bm, ok := peer.PartnerBM(0); ok {
		t.Fatalf("superseding connection inherited buffer map %v", bm.Latest)
	}
	waitFor(t, 2*time.Second, func() bool { _, ok := peer.PartnerBM(0); return ok },
		"no keyframe on the superseding connection")
	if got := peer.Partners(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("partners %v, want [0]", got)
	}
}

// TestDropPartnerForgetsEverything: after a read error the partner is
// gone as a whole — no conn, no buffer map, its lanes orphaned — and
// the reaper finds nothing left to tear down.
func TestDropPartnerForgetsEverything(t *testing.T) {
	src := mustNode(t, testConfig(0, 0))
	addr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}
	peer := mustNode(t, testConfig(1, 0))
	mustListen(t, peer)
	if _, err := peer.Connect(addr); err != nil {
		t.Fatal(err)
	}
	if err := peer.InitBuffers(0); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < testLayout.K; j++ {
		if err := peer.SubscribeTracked(0, j, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { _, ok := peer.PartnerBM(0); return ok && peer.Latest(0) > 0 },
		"stream never started")

	src.Abort() // no Leave frame: the peer sees its read fail
	waitFor(t, 3*time.Second, func() bool { return len(peer.Partners()) == 0 },
		"dead partner still registered")
	if _, ok := peer.PartnerBM(0); ok {
		t.Fatal("buffer map survived the partner")
	}
	for j := 0; j < testLayout.K; j++ {
		if got := peer.LaneParent(j); got != -1 {
			t.Fatalf("lane %d still parented by %d", j, got)
		}
	}
	mgr := testMgrConfig(1)
	mgr.Stale = time.Nanosecond // anything left over would be stale
	peer.reapStalePartners(mgr)
	if rec := peer.Recovery(); rec.StaleTeardowns != 0 {
		t.Fatalf("reaper tore down %d partners after the drop", rec.StaleTeardowns)
	}
}

// TestSubscribeRecordsLaneParent: there is one subscribe call and it
// always records the parent, so LaneParent(j) == -1 means exactly
// "nobody serves lane j" — after a refusal and after a failed call too.
func TestSubscribeRecordsLaneParent(t *testing.T) {
	srcCfg := testConfig(0, 0)
	srcCfg.UploadSlots = testLayout.K
	src := mustNode(t, srcCfg)
	addr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}
	star := make([]*Node, 2)
	for i := range star {
		star[i] = mustNode(t, testConfig(int32(i+1), 0))
		mustListen(t, star[i])
		if _, err := star[i].Connect(addr); err != nil {
			t.Fatal(err)
		}
		if err := star[i].InitBuffers(0); err != nil {
			t.Fatal(err)
		}
	}
	// The first child takes every slot: each lane names the source.
	for j := 0; j < testLayout.K; j++ {
		if err := star[0].SubscribeTracked(0, j, 0); err != nil {
			t.Fatal(err)
		}
		if got := star[0].LaneParent(j); got != 0 {
			t.Fatalf("lane %d parent %d, want 0", j, got)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return star[0].Latest(testLayout.K-1) > 0 },
		"admitted lanes never delivered")
	// The second is refused on every lane and ends up with none.
	for j := 0; j < testLayout.K; j++ {
		if err := star[1].SubscribeTracked(0, j, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		for j := 0; j < testLayout.K; j++ {
			if star[1].LaneParent(j) != -1 {
				return false
			}
		}
		return src.Admission().SubscribesRejected == uint64(testLayout.K)
	}, "refused lanes still name a parent")
	// A subscribe that cannot be sent records nothing.
	if err := star[1].SubscribeTracked(42, 0, 0); err == nil {
		t.Fatal("subscribe to a stranger succeeded")
	}
	if got := star[1].LaneParent(0); got != -1 {
		t.Fatalf("failed subscribe left lane 0 with parent %d", got)
	}
	for j := 0; j < testLayout.K; j++ {
		if got := star[0].LaneParent(j); got != 0 {
			t.Fatalf("admitted lane %d lost its parent: %d", j, got)
		}
	}
}

// TestPickLaneParentIsPure is ROADMAP 1(d): with two partners equally
// fresh on a lane the choice used to follow map iteration order, so the
// same seed grew a different overlay on every run. It is now a pure
// function of (self, partner set, lane) — and the tie-break spreads:
// across selves and lanes the ties do not all land on the lowest ID,
// which in every overlay is the source.
func TestPickLaneParentIsPure(t *testing.T) {
	picks := map[int32]int{}
	for self := int32(1); self <= 8; self++ {
		n := mustNode(t, testConfig(self, 0))
		t.Cleanup(func() { // detach the bare records before Close walks them
			n.mu.Lock()
			n.conns = map[int32]*conn{}
			n.mu.Unlock()
		})
		n.mu.Lock()
		n.conns[0] = &conn{peer: 0, bm: newTestBM(50), bmAt: time.Now()}
		n.conns[20] = &conn{peer: 20, bm: newTestBM(50), bmAt: time.Now()}
		n.mu.Unlock()
		for j := 0; j < testLayout.K; j++ {
			want, ok := n.pickLaneParent(j, nil)
			if !ok {
				t.Fatal("no parent among two partners")
			}
			for i := 0; i < 64; i++ {
				if got, _ := n.pickLaneParent(j, nil); got != want {
					t.Fatalf("self %d lane %d: pick %d then %d from the same partner set", self, j, want, got)
				}
			}
			picks[want]++
		}
		// Progress still beats the tie-break.
		n.mu.Lock()
		ahead := newTestBM(50)
		ahead.Latest[1] = 51
		n.conns[20].bm = ahead
		n.mu.Unlock()
		if got, _ := n.pickLaneParent(1, nil); got != 20 {
			t.Fatalf("self %d: picked %d over the fresher partner", self, got)
		}
		if got, ok := n.pickLaneParent(1, map[int32]bool{20: true}); !ok || got != 0 {
			t.Fatalf("self %d: tried partner not skipped (%d, %v)", self, got, ok)
		}
	}
	if picks[0] < 8 || picks[20] < 8 {
		t.Fatalf("32 ties split %d/%d between the two partners: not spread", picks[0], picks[20])
	}
}

// TestJoinSettlesForASmallOverlay: a newcomer whose tracker knows only
// the source cannot reach TargetPartners 3. It must take the partner
// there is and start streaming — not spend its deadline re-dialing the
// partner it already has.
func TestJoinSettlesForASmallOverlay(t *testing.T) {
	reg := netboot.NewRegistry(netboot.RegistryConfig{Seed: 5})
	client := joinTracker(t, reg)
	startTestSource(t, testConfig(0, 0), client(0))

	j := mustNode(t, testConfig(7, 0))
	selfAddr := mustListen(t, j)
	begin := time.Now()
	st, err := j.Join(JoinConfig{Boot: client(7), SelfAddr: selfAddr, Register: true})
	if err != nil {
		t.Fatalf("join: %v (stats %+v)", err, st)
	}
	if took := time.Since(begin); took > 3*time.Second {
		t.Fatalf("join took %v against a one-peer overlay (stats %+v)", took, st)
	}
	if st.Attempts != 1 || st.Partners != 1 || !st.Joined {
		t.Fatalf("join stats %+v, want one dial, one partner, joined", st)
	}
	for lane := 0; lane < testLayout.K; lane++ {
		if got := j.LaneParent(lane); got != 0 {
			t.Fatalf("lane %d parent %d, want the source", lane, got)
		}
	}
}

// TestWrongWidthMapsAreDropped speaks the wire by hand as a partner
// that advertises maps of another lane count — a 1-lane keyframe and a
// 1-lane full map with a huge head, a 5-lane relative delta — on a
// K = 4 node. Stored as the partner's map, one such frame would set the
// adaptation planner's best-progress reference and the join edge for
// every lane (both take MaxLatest before looking at K). They must be
// dropped at receive: no map, no refresh stamp, no ack, no epoch — and
// the K-wide exchange around them keeps chaining. The node is capped and
// has no buffers, so it answers a subscribe with an unsubscribe: the
// test's proof that everything sent before it has been handled.
func TestWrongWidthMapsAreDropped(t *testing.T) {
	cfg := testConfig(1, 0)
	cfg.UploadSlots = 1
	n := mustNode(t, cfg)
	addr := mustListen(t, n)
	c := rawPartner(t, addr, 9)
	fr := protocol.NewFrameReader(c)

	send := func(m protocol.Message) {
		t.Helper()
		m.From, m.To = 9, 1
		if err := protocol.WriteFrame(c, m); err != nil {
			t.Fatal(err)
		}
	}
	// readUntil consumes the node's frames up to the first one of type
	// typ, collecting every keyframe acknowledgement on the way.
	var acks []uint8
	readUntil := func(typ protocol.MsgType) {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			m, err := fr.Read()
			if err != nil {
				t.Fatalf("waiting for %v: %v", typ, err)
			}
			if m.Type == protocol.TypeBMAck {
				acks = append(acks, m.AckEpoch)
			}
			if m.Type == typ {
				return
			}
		}
	}
	// barrier returns once the node has handled everything sent so far.
	barrier := func() {
		t.Helper()
		send(protocol.Message{Type: protocol.TypeSubscribe, SubStream: 0})
		readUntil(protocol.TypeUnsubscribe)
	}
	narrow := buffer.NewBufferMap(1)
	narrow.Latest[0] = 1 << 40
	narrowKey, err := protocol.KeyBM(narrow, 7)
	if err != nil {
		t.Fatal(err)
	}

	send(protocol.Message{Type: protocol.TypeBMDelta, Delta: narrowKey})
	send(protocol.Message{Type: protocol.TypeBMExchange, BM: narrow})
	barrier()
	if bm, ok := n.PartnerBM(9); ok {
		t.Fatalf("1-lane map stored as the partner's: %v", bm.Latest)
	}

	wide := newTestBM(40)
	wideKey, err := protocol.KeyBM(wide, 8)
	if err != nil {
		t.Fatal(err)
	}
	send(protocol.Message{Type: protocol.TypeBMDelta, Delta: wideKey})
	narrowKey.Epoch = 9
	send(protocol.Message{Type: protocol.TypeBMDelta, Delta: narrowKey})
	send(protocol.Message{Type: protocol.TypeBMExchange, BM: narrow})
	send(protocol.Message{Type: protocol.TypeBMDelta, Delta: protocol.BMDelta{Epoch: 8, Lanes: []int64{1, 1, 1, 1, 1}}})
	send(protocol.Message{Type: protocol.TypeBMDelta, Delta: protocol.BMDelta{Epoch: 8, Lanes: []int64{2, 2, 2, 2}}})
	barrier()
	bm, ok := n.PartnerBM(9)
	if !ok || bm.K() != testLayout.K {
		t.Fatalf("partner map %v (ok %v), want %d lanes", bm.Latest, ok, testLayout.K)
	}
	// The relative delta of epoch 8 still applied: the 1-lane keyframe
	// of epoch 9 between them did not move the receive epoch.
	for j, v := range bm.Latest {
		if v != 42 {
			t.Fatalf("lane %d at %d, want 42 (map %v)", j, v, bm.Latest)
		}
	}
	// Acks leave through the writer queue in order (the refusals above
	// bypass it), so up to the ack of one more keyframe the node must
	// have acknowledged the K-wide keyframes and nothing else.
	wideKey.Epoch = 10
	send(protocol.Message{Type: protocol.TypeBMDelta, Delta: wideKey})
	for len(acks) == 0 || acks[len(acks)-1] != 10 {
		readUntil(protocol.TypeBMAck)
	}
	if len(acks) != 2 || acks[0] != 8 {
		t.Fatalf("acknowledged epochs %v, want [8 10]", acks)
	}
}

// TestPartnerBMIsACopy polls PartnerBM while the partner's deltas are
// applied in place by the read loop: under -race a returned map that
// shared the record's slices is a reported data race, and without it a
// caller's scribble must not reach the record.
func TestPartnerBMIsACopy(t *testing.T) {
	cfg := testConfig(0, 0)
	cfg.BMPeriod = 2 * time.Millisecond
	src := mustNode(t, cfg)
	addr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}
	peer := mustNode(t, testConfig(1, 0))
	mustListen(t, peer)
	if _, err := peer.Connect(addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { _, ok := peer.PartnerBM(0); return ok }, "no buffer map")
	var sum int64
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		bm, _ := peer.PartnerBM(0)
		for j := range bm.Latest {
			sum += bm.Latest[j]
			bm.Latest[j] = -1
			bm.Subscribed[j] = true
		}
	}
	bm, ok := peer.PartnerBM(0)
	if !ok || bm.K() != testLayout.K {
		t.Fatalf("partner map %v (ok %v)", bm.Latest, ok)
	}
	for j := range bm.Latest {
		if bm.Latest[j] < 0 || bm.Subscribed[j] {
			t.Fatalf("a caller's write reached the partner record: %v %v (sum %d)", bm.Latest, bm.Subscribed, sum)
		}
	}
}
