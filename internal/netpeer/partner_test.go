package netpeer

import (
	"testing"
	"time"

	"coolstream/internal/netboot"
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
