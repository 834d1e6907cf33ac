package netpeer

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/faults"
	"coolstream/internal/netboot"
	"coolstream/internal/protocol"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// newTestBM builds a K-lane buffer map advertising `latest` on every
// lane.
func newTestBM(latest int64) buffer.BufferMap {
	bm := buffer.NewBufferMap(testLayout.K)
	for j := range bm.Latest {
		bm.Latest[j] = latest
	}
	return bm
}

// testMgrConfig is a fast maintenance loop for wall-clock tests.
func testMgrConfig(target int) ManagerConfig {
	return ManagerConfig{
		TargetPartners: target,
		Stale:          800 * time.Millisecond,
		Interval:       100 * time.Millisecond,
		DialCooldown:   500 * time.Millisecond,
		Seed:           1,
	}
}

// newTestTracker starts a real TCP tracker over cfg's registry on a
// loopback port; TCPServer.SetDown is the outage drill.
func newTestTracker(t *testing.T, cfg netboot.RegistryConfig) (*netboot.TCPServer, string) {
	t.Helper()
	srv := netboot.NewTCPServer(netboot.NewRegistry(cfg), netboot.TCPServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func testBootClient(t *testing.T, addr string, id int32) *netboot.TCPClient {
	t.Helper()
	c := netboot.NewTCPClient(addr)
	c.SetTimeout(2 * time.Second)
	c.SetBackoff(faults.Backoff{Base: 20 * sim.Millisecond, Cap: 100 * sim.Millisecond, JitterFrac: 0.5}, 3, uint64(id))
	t.Cleanup(func() { c.Close() })
	return c
}

// mustRegister announces id at addr through a fresh client.
func mustRegister(t *testing.T, tracker string, id int32, addr string) {
	t.Helper()
	if err := testBootClient(t, tracker, id).Register(id, addr); err != nil {
		t.Fatal(err)
	}
}

// TestManagerReplenishesAfterPartnerKill is the partner-kill recovery
// path: a peer whose partner dies abruptly (no Leave — a crash) must
// re-contact the tracker and replenish back to the target M.
func TestManagerReplenishesAfterPartnerKill(t *testing.T) {
	_, tracker := newTestTracker(t, netboot.RegistryConfig{Seed: 7})

	src := mustNode(t, testConfig(0, 0))
	mustRegister(t, tracker, 0, mustListen(t, src))

	victim := mustNode(t, testConfig(2, 0))
	mustRegister(t, tracker, 2, mustListen(t, victim))

	a := mustNode(t, testConfig(1, 0))
	mustListen(t, a)
	if err := a.EnableMaintenance(testMgrConfig(2), testBootClient(t, tracker, 1)); err != nil {
		t.Fatal(err)
	}
	// Replenishment discovers both tracker-registered peers from zero.
	waitFor(t, 5*time.Second, func() bool { return len(a.Partners()) >= 2 },
		"maintenance never built the partner set from the tracker")

	// Crash the victim: conns die without a Leave frame.
	victim.Abort()

	// A third peer joins; A must adopt it to restore the target.
	repl := mustNode(t, testConfig(3, 0))
	mustRegister(t, tracker, 3, mustListen(t, repl))

	waitFor(t, 6*time.Second, func() bool {
		ps := a.Partners()
		if len(ps) < 2 {
			return false
		}
		for _, p := range ps {
			if p == 2 {
				return false // the dead partner must be gone
			}
		}
		return true
	}, "partner set never replenished after the kill")
	if rec := a.Recovery(); rec.PartnersReplaced < 2 || rec.Rebootstraps == 0 {
		t.Fatalf("recovery counters %+v", rec)
	}
}

// TestManagerTearsDownHungPartner is the stale-conn case TCP errors
// never surface: a partner that handshakes and then goes silent (conn
// open, nothing sent) must be torn down by the liveness deadline, while
// a quiet-but-alive partner (no buffers, ping heartbeats only)
// survives.
func TestManagerTearsDownHungPartner(t *testing.T) {
	a := mustNode(t, testConfig(1, 0))
	addr := mustListen(t, a)
	if err := a.EnableMaintenance(testMgrConfig(2), nil); err != nil {
		t.Fatal(err)
	}

	// Alive partner: a real node with no buffers — its bmLoop sends
	// TypePing heartbeats.
	alive := mustNode(t, testConfig(2, 0))
	mustListen(t, alive)
	if _, err := alive.Connect(addr); err != nil {
		t.Fatal(err)
	}

	// Hung partner: raw socket that completes the handshake, then
	// freezes with the connection open.
	zc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer zc.Close()
	if err := protocol.WriteFrame(zc, protocol.Message{Type: protocol.TypePartnerRequest, From: 99, To: -1}); err != nil {
		t.Fatal(err)
	}
	zc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if resp, err := protocol.NewFrameReader(zc).Read(); err != nil || resp.Type != protocol.TypePartnerAccept {
		t.Fatalf("zombie handshake: %v %v", resp.Type, err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(a.Partners()) == 2 }, "both partners never registered")

	// The zombie must be reaped; the pinging partner must survive.
	waitFor(t, 4*time.Second, func() bool {
		ps := a.Partners()
		return len(ps) == 1 && ps[0] == 2
	}, "hung partner never torn down (or live partner reaped)")
	if rec := a.Recovery(); rec.StaleTeardowns != 1 {
		t.Fatalf("StaleTeardowns %d, want 1", rec.StaleTeardowns)
	}
}

// TestManagerRebootstrapsThroughOutage: with the tracker down, the
// maintenance loop keeps retrying through the client's backoff; once
// the tracker returns, the node re-registers itself and replenishes.
func TestManagerRebootstrapsThroughOutage(t *testing.T) {
	srv, tracker := newTestTracker(t, netboot.RegistryConfig{Seed: 7})
	srv.SetDown(true) // tracker down from the start

	a := mustNode(t, testConfig(1, 0))
	mustListen(t, a)
	bc := testBootClient(t, tracker, 1)
	if err := a.EnableMaintenance(testMgrConfig(1), bc); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return a.Recovery().BootstrapFailures >= 2
	}, "no bootstrap failures recorded during the outage")
	if retried, _ := bc.RetryStats(); retried == 0 {
		t.Fatal("client never retried through the outage")
	}

	// Tracker comes back with a candidate registered.
	peer := mustNode(t, testConfig(5, 0))
	peerAddr := mustListen(t, peer)
	srv.SetDown(false)
	mustRegister(t, tracker, 5, peerAddr)

	waitFor(t, 5*time.Second, func() bool {
		ps := a.Partners()
		return len(ps) == 1 && ps[0] == 5
	}, "never re-partnered after the outage lifted")
	// Re-registration healed the tracker's view of A.
	if got := srv.Registry().Count(); got != 2 {
		t.Fatalf("tracker count %d after recovery, want 2", got)
	}
}

// TestCloseDuringReplenishNoLeak is the shutdown regression: Close
// while the maintenance loop is mid-replenishment (slow failing dials,
// and a tracker client stuck in a 10-second retry backoff against a
// dead address) must not leak the maintenance goroutine or stall.
// EnableMaintenance wires the node's done channel into the boot
// client's stop hook, so the backoff pause aborts immediately.
func TestCloseDuringReplenishNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := testConfig(1, 0)
	cfg.Dialer = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		time.Sleep(50 * time.Millisecond)
		return nil, fmt.Errorf("unreachable (test dialer)")
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustListen(t, n)
	// Tracker at a dead address with a backoff far longer than the
	// Close deadline below: without stop wiring, rebootstrap would pin
	// the maintenance goroutine in its retry sleep.
	bc := netboot.NewTCPClient("127.0.0.1:1")
	bc.SetTimeout(200 * time.Millisecond)
	bc.SetBackoff(faults.Backoff{Base: 10 * sim.Second, Cap: 20 * sim.Second}, 5, 1)
	mcfg := testMgrConfig(3)
	mcfg.Interval = 30 * time.Millisecond
	mcfg.DialCooldown = time.Millisecond // keep candidates hot so dials keep happening
	if err := n.EnableMaintenance(mcfg, bc); err != nil {
		t.Fatal(err)
	}
	for i := int32(10); i < 16; i++ {
		n.mcacheAdd(i, fmt.Sprintf("127.0.0.1:%d", 40000+i))
	}
	time.Sleep(400 * time.Millisecond) // replenishment churns, rebootstrap enters its backoff
	if _, pauses := bc.RetryStats(); pauses == 0 {
		t.Fatal("tracker client is not parked in its retry backoff")
	}
	done := make(chan struct{})
	go func() {
		n.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on the maintenance loop")
	}
	waitFor(t, 3*time.Second, func() bool {
		return runtime.NumGoroutine() <= base+2
	}, "maintenance goroutine leaked past Close")
}

// TestManagerRenewsLease pins the keep-alive half of lease expiry: a
// healthy peer with a full partner set (so it never rebootstraps) must
// keep renewing its tracker lease, while a peer with no renewal loop
// lapses and disappears from candidates.
func TestManagerRenewsLease(t *testing.T) {
	srv, tracker := newTestTracker(t, netboot.RegistryConfig{LeaseTTL: 500 * time.Millisecond, Seed: 5})
	reg := srv.Registry()

	b := mustNode(t, testConfig(2, 0))
	addrB := mustListen(t, b)

	a := mustNode(t, testConfig(1, 0))
	addrA := mustListen(t, a)
	bc := testBootClient(t, tracker, 1)
	if err := bc.Register(1, addrA); err != nil {
		t.Fatal(err)
	}
	// Peer 77 registers once and never renews — a crashed peer.
	if _, err := reg.Register(77, "127.0.0.1:47777", ""); err != nil {
		t.Fatal(err)
	}

	mcfg := testMgrConfig(1)
	mcfg.RenewEvery = 100 * time.Millisecond
	if err := a.EnableMaintenance(mcfg, bc); err != nil {
		t.Fatal(err)
	}
	// Full partner set: replenishment (and with it rebootstrap's
	// incidental re-register) never runs; only renewLease keeps the
	// lease alive.
	if _, err := a.Connect(addrB); err != nil {
		t.Fatal(err)
	}

	time.Sleep(1200 * time.Millisecond) // > 2 lease TTLs

	cands := reg.Candidates(10, netboot.ExcludeNone)
	ids := make(map[int32]bool, len(cands))
	for _, e := range cands {
		ids[e.ID] = true
	}
	if !ids[1] {
		t.Fatalf("renewing peer evicted: candidates %+v", cands)
	}
	if ids[77] {
		t.Fatalf("silent peer still a candidate after %v TTL: %+v", 500*time.Millisecond, cands)
	}
	if rec := a.Recovery(); rec.LeaseRenewals < 5 {
		t.Fatalf("LeaseRenewals %d, want ≥5 over 1.2s at 100ms", rec.LeaseRenewals)
	}
}

// TestEnableMaintenanceGuards pins the config validation and the
// double-enable rejection.
func TestEnableMaintenanceGuards(t *testing.T) {
	n := mustNode(t, testConfig(1, 0))
	if err := n.EnableMaintenance(ManagerConfig{}, nil); err == nil {
		t.Fatal("zero TargetPartners accepted")
	}
	if err := n.EnableMaintenance(testMgrConfig(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := n.EnableMaintenance(testMgrConfig(2), nil); err == nil {
		t.Fatal("double enable accepted")
	}
}

// TestPusherAbortNotifiesChild is the silent-pusher-death fix: when a
// parent's pusher dies abnormally while the connection is still alive,
// the child must receive a teardown notice and orphan the lane
// immediately, instead of discovering the stall via adaptation.
func TestPusherAbortNotifiesChild(t *testing.T) {
	src := mustNode(t, testConfig(0, 8*testLayout.RateBps)) // metered uplink: bucket is active
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
	if err := child.SubscribeTracked(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return child.Latest(0) > 5 }, "no blocks flowed")

	// Kill the parent's upload bucket out from under its pushers; the
	// node itself stays up and the conn stays open.
	src.bkt.close()

	waitFor(t, 3*time.Second, func() bool { return child.LaneParent(0) == -1 },
		"child never orphaned the lane after pusher death")
	if got := len(child.Partners()); got != 1 {
		t.Fatalf("partnership should survive pusher death, have %d partners", got)
	}
	if rec := src.Recovery(); rec.PusherAborts == 0 {
		t.Fatal("pusher abort not counted")
	}
}

// TestPlanSwitchIgnoresStaleBM is the frozen-buffer-map fix: a hung
// partner's stale map must neither set the best-progress reference nor
// qualify its owner as a replacement parent.
func TestPlanSwitchIgnoresStaleBM(t *testing.T) {
	n := mustNode(t, testConfig(3, 0))
	if err := n.InitBuffers(0); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	now := time.Now()

	n.mu.Lock()
	freshBM := newTestBM(50)
	staleBM := newTestBM(500) // way ahead — would dominate best if counted
	n.conns[1] = &conn{peer: 1, bm: freshBM, bmAt: now}
	n.conns[2] = &conn{peer: 2, bm: staleBM, bmAt: now.Add(-10 * time.Second)}
	cfg := AdaptConfig{Ts: 10, Tp: 1000, BMStale: time.Second}
	plan, ok := n.planSwitchLocked(cfg, rng)
	if !ok {
		n.mu.Unlock()
		t.Fatal("no plan despite orphaned lanes and a fresh candidate")
	}
	if plan.newParent != 1 {
		n.mu.Unlock()
		t.Fatalf("stale partner chosen as parent: %+v", plan)
	}

	// With only the stale partner left, planning must fail entirely:
	// best-progress cannot come from an expired map.
	delete(n.conns, 1)
	if _, ok := n.planSwitchLocked(cfg, rng); ok {
		n.mu.Unlock()
		t.Fatal("planned a switch from a stale buffer map alone")
	}
	// Detach the fake conns before Close walks them.
	n.conns = make(map[int32]*conn)
	n.mu.Unlock()
}

// fakeBoot records tracker calls for the graceful-departure test.
type fakeBoot struct {
	mu    sync.Mutex
	left  []int32
	regs  []int32
	cands []netboot.Entry
}

func (f *fakeBoot) Register(id int32, addr string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.regs = append(f.regs, id)
	return nil
}

func (f *fakeBoot) Leave(id int32) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.left = append(f.left, id)
	return nil
}

func (f *fakeBoot) Candidates(n int, exclude int32) ([]netboot.Entry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]netboot.Entry(nil), f.cands...), nil
}

// TestCloseAnnouncesDeparture pins the graceful-departure path: Close
// sends Leave to live partners (the peer drops the partnership without
// waiting for a read error) and deregisters from the tracker.
func TestCloseAnnouncesDeparture(t *testing.T) {
	fb := &fakeBoot{}
	a := mustNode(t, testConfig(1, 0))
	mustListen(t, a)
	if err := a.EnableMaintenance(testMgrConfig(1), fb); err != nil {
		t.Fatal(err)
	}
	b := mustNode(t, testConfig(2, 0))
	addrB := mustListen(t, b)
	if _, err := a.Connect(addrB); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(b.Partners()) == 1 }, "partnership never formed")

	a.Close()
	waitFor(t, 2*time.Second, func() bool { return len(b.Partners()) == 0 },
		"peer kept the partnership after Leave")
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if len(fb.left) != 1 || fb.left[0] != 1 {
		t.Fatalf("tracker Leave calls %v, want [1]", fb.left)
	}
}

// TestGossipFillsMCache: a partner answers TypeMCacheRequest with its
// own candidates, and the requester merges them.
func TestGossipFillsMCache(t *testing.T) {
	a := mustNode(t, testConfig(1, 0))
	mustListen(t, a)
	b := mustNode(t, testConfig(2, 0))
	addrB := mustListen(t, b)
	// B knows about peer 9.
	b.mcacheAdd(9, "127.0.0.1:49009")
	// Force B to have a selfAddr so it advertises itself as well.
	b.mu.Lock()
	b.selfAddr = addrB
	b.mu.Unlock()

	if _, err := a.Connect(addrB); err != nil {
		t.Fatal(err)
	}
	cn := a.connOf(2)
	if cn == nil {
		t.Fatal("no conn")
	}
	if err := cn.send(protocol.Message{Type: protocol.TypeMCacheRequest, From: 1, To: 2, Want: 8}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		a.mu.Lock()
		_, ok := a.mcache[9]
		a.mu.Unlock()
		return ok && a.Recovery().GossipMerged > 0
	}, "gossiped candidate never merged")
}
