package netpeer

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"coolstream/internal/protocol"
)

// TestMaxPartnersRejectWithAlternates fills a capped node's partner
// set and checks the next joiner is refused with mCache alternates —
// a redirect, not a dead end — and that both ends count it.
func TestMaxPartnersRejectWithAlternates(t *testing.T) {
	full := testConfig(1, 0)
	full.MaxPartners = 2
	target := mustNode(t, full)
	addr := mustListen(t, target)

	// Two partners fill the cap; each advertises its listen address,
	// seeding the target's mCache with dialable alternates.
	var partnerAddrs []string
	for id := int32(2); id <= 3; id++ {
		p := mustNode(t, testConfig(id, 0))
		partnerAddrs = append(partnerAddrs, mustListen(t, p))
		if _, err := p.Connect(addr); err != nil {
			t.Fatalf("partner %d: %v", id, err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return len(target.Partners()) == 2 },
		"cap never filled")

	joiner := mustNode(t, testConfig(9, 0))
	mustListen(t, joiner)
	_, err := joiner.Connect(addr)
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("want *RejectedError, got %v", err)
	}
	if rej.Peer != 1 {
		t.Fatalf("rejecting peer %d, want 1", rej.Peer)
	}
	if len(rej.Alternates) != 2 {
		t.Fatalf("alternates %v, want the 2 partners", rej.Alternates)
	}
	for _, e := range rej.Alternates {
		if e.Addr != partnerAddrs[0] && e.Addr != partnerAddrs[1] {
			t.Fatalf("alternate %v not a known partner address", e)
		}
		if e.ID == 9 || e.ID == 1 {
			t.Fatalf("alternate %v names the requester or the rejecting node", e)
		}
	}
	if len(target.Partners()) != 2 {
		t.Fatalf("partner set %v grew past the cap", target.Partners())
	}
	if got := target.Admission(); got.PartnersRejected != 1 || got.PartnersAdmitted != 2 {
		t.Fatalf("target admission %+v", got)
	}
	if got := joiner.Admission(); got.RejectsReceived != 1 {
		t.Fatalf("joiner admission %+v", got)
	}
	// The alternates were merged: the joiner can dial one directly.
	if _, err := joiner.Connect(rej.Alternates[0].Addr); err != nil {
		t.Fatalf("alternate dial: %v", err)
	}
}

// TestMaxPartnersConcurrentDials storms a capped node with concurrent
// handshakes: the reservation must never let the set overshoot, and
// every loser must see a typed reject.
func TestMaxPartnersConcurrentDials(t *testing.T) {
	capped := testConfig(1, 0)
	capped.MaxPartners = 4
	target := mustNode(t, capped)
	addr := mustListen(t, target)

	const dialers = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, rejected := 0, 0
	for i := 0; i < dialers; i++ {
		p := mustNode(t, testConfig(int32(100+i), 0))
		wg.Add(1)
		go func(p *Node) {
			defer wg.Done()
			_, err := p.Connect(addr)
			mu.Lock()
			defer mu.Unlock()
			var rej *RejectedError
			switch {
			case err == nil:
				accepted++
			case errors.As(err, &rej):
				rejected++
			default:
				t.Errorf("unexpected connect error: %v", err)
			}
		}(p)
	}
	wg.Wait()
	if accepted != 4 || rejected != dialers-4 {
		t.Fatalf("accepted %d rejected %d, want 4/%d", accepted, rejected, dialers-4)
	}
	if got := len(target.Partners()); got != 4 {
		t.Fatalf("partner set %d, want 4", got)
	}
}

// TestExistingPartnerExemptFromCap verifies a reconnect by a current
// partner passes admission even with the cap full — the new conn
// replaces the old one, it does not grow the set.
func TestExistingPartnerExemptFromCap(t *testing.T) {
	capped := testConfig(1, 0)
	capped.MaxPartners = 1
	target := mustNode(t, capped)
	addr := mustListen(t, target)

	p := mustNode(t, testConfig(2, 0))
	mustListen(t, p)
	if _, err := p.Connect(addr); err != nil {
		t.Fatal(err)
	}
	// Connect returns on the accept frame, which the target sends just
	// before it registers the partnership.
	waitFor(t, 2*time.Second, func() bool { return len(target.Partners()) == 1 }, "first partnership never registered")
	// Same peer redials (a reconnect after a perceived failure).
	if _, err := p.Connect(addr); err != nil {
		t.Fatalf("reconnect refused by the cap: %v", err)
	}
	if got := len(target.Partners()); got != 1 {
		t.Fatalf("partner set %d, want 1", got)
	}
}

// TestHandshakeSemaphoreShedsAndClosesCleanly opens more silent
// connections than the pending-handshake bound allows, checks the
// excess is shed without protocol work, and that closing the node
// mid-storm neither hangs nor leaks the handshake goroutines.
func TestHandshakeSemaphoreShedsAndClosesCleanly(t *testing.T) {
	cfg := testConfig(1, 0)
	cfg.MaxPendingHandshakes = 2
	cfg.HandshakeTimeout = 300 * time.Millisecond
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := n.Listen()
	if err != nil {
		t.Fatal(err)
	}

	// 8 dials that never send a handshake: 2 occupy the slots, the rest
	// must be shed at accept time.
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < 8; i++ {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	waitFor(t, 2*time.Second, func() bool {
		return n.Admission().HandshakesShed >= 6
	}, "excess handshakes never shed")

	// Abort mid-storm: the two parked handshake goroutines sit in a
	// deadline-bounded read; shutdown must complete once it expires.
	done := make(chan struct{})
	go func() {
		n.Abort()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("close hung on pending handshakes")
	}
}

// TestUploadSlotsRefusal caps a source at one pusher and subscribes two
// lanes: the second must be refused with an Unsubscribe notice that
// orphans the child's lane immediately.
func TestUploadSlotsRefusal(t *testing.T) {
	srcCfg := testConfig(0, 0)
	srcCfg.UploadSlots = 1
	src := mustNode(t, srcCfg)
	addr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}

	child := mustNode(t, testConfig(1, 0))
	mustListen(t, child)
	if _, err := child.Connect(addr); err != nil {
		t.Fatal(err)
	}
	if err := child.InitBuffers(0); err != nil {
		t.Fatal(err)
	}
	child.SubscribeTracked(0, 0, 0)
	waitFor(t, 2*time.Second, func() bool { return child.Latest(0) >= 0 },
		"admitted lane never delivered")
	child.SubscribeTracked(0, 1, 0)
	waitFor(t, 2*time.Second, func() bool {
		return src.Admission().SubscribesRejected == 1 && child.LaneParent(1) == -1
	}, "over-budget lane neither refused nor orphaned")
	// The admitted lane keeps flowing.
	if child.LaneParent(0) != 0 {
		t.Fatalf("admitted lane orphaned too: parent %d", child.LaneParent(0))
	}
}

// TestRejectAlternatesExcludesUnusable checks the alternate builder
// filters the requester, the node itself, and address-less entries.
func TestRejectAlternatesExcludesUnusable(t *testing.T) {
	cfg := testConfig(1, 0)
	cfg.RejectAlternates = 8
	n := mustNode(t, cfg)
	n.mu.Lock()
	n.selfAddr = "self:1"
	n.mcache[2] = mcacheEntry{addr: "b:1", seen: time.Now()}
	n.mcache[3] = mcacheEntry{addr: "", seen: time.Now()}       // no address
	n.mcache[4] = mcacheEntry{addr: "self:1", seen: time.Now()} // ourselves via tracker echo
	n.mcache[5] = mcacheEntry{addr: "e:1", seen: time.Now()}
	n.mu.Unlock()
	got := n.rejectAlternates(5) // 5 is the requester
	if len(got) != 1 || got[0] != (protocol.PeerEntry{ID: 2, Addr: "b:1"}) {
		t.Fatalf("alternates %v, want only peer 2", got)
	}
}
