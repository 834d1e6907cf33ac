package netpeer

import (
	"testing"
	"time"

	"coolstream/internal/buffer"
)

// testLayout keeps wall-clock tests fast: 512 kbps in 4 sub-streams of
// 800-byte blocks → 80 blocks/s global, 20 per sub-stream.
var testLayout = buffer.Layout{K: 4, RateBps: 512e3, BlockBytes: 800}

func testConfig(id int32, uploadBps float64) Config {
	return Config{
		ID:           id,
		Layout:       testLayout,
		UploadBps:    uploadBps,
		BMPeriod:     100 * time.Millisecond,
		BufferBlocks: 400,
		ReadyBlocks:  10,
	}
}

func mustNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func mustListen(t *testing.T, n *Node) string {
	t.Helper()
	addr, err := n.Listen()
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("timeout: " + msg)
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(1, 0).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testConfig(1, 0)
	bad.Layout.K = 0
	if bad.Validate() == nil {
		t.Fatal("invalid layout accepted")
	}
	bad = testConfig(1, 0)
	bad.BMPeriod = 0
	if bad.Validate() == nil {
		t.Fatal("zero BM period accepted")
	}
	bad = testConfig(1, 0)
	bad.ReadyBlocks = 0
	if bad.Validate() == nil {
		t.Fatal("zero ready accepted")
	}
}

func TestHandshakeAndBMExchange(t *testing.T) {
	src := mustNode(t, testConfig(0, 0))
	addr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}
	peer := mustNode(t, testConfig(1, 0))
	mustListen(t, peer)
	id, err := peer.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("handshake returned peer %d", id)
	}
	waitFor(t, 3*time.Second, func() bool {
		bm, ok := peer.PartnerBM(0)
		return ok && bm.MaxLatest() > 0
	}, "no buffer map with progress received")
	// Both sides see the partnership.
	if len(src.Partners()) != 1 || len(peer.Partners()) != 1 {
		t.Fatalf("partner counts %d/%d", len(src.Partners()), len(peer.Partners()))
	}
}

func TestStreamFromSourceReachesReadyAndStaysContinuous(t *testing.T) {
	src := mustNode(t, testConfig(0, 0)) // unlimited uplink
	addr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond) // let the live edge advance

	peer := mustNode(t, testConfig(1, 0))
	mustListen(t, peer)
	if _, err := peer.Connect(addr); err != nil {
		t.Fatal(err)
	}
	// Join a little behind the live edge, like the Tp shift.
	start := src.Latest(0) - 5
	if start < 0 {
		start = 0
	}
	if err := peer.InitBuffers(start); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < testLayout.K; j++ {
		if err := peer.SubscribeTracked(0, j, start); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, peer.Ready, "peer never media-ready")
	time.Sleep(1500 * time.Millisecond)
	if ci := peer.Continuity(); ci < 0.95 {
		t.Fatalf("continuity %.3f under an unconstrained source", ci)
	}
	// The combined prefix tracks all lanes.
	if got := peer.Combined(); got < (start+20)*int64(testLayout.K) {
		t.Fatalf("combined prefix %d too short", got)
	}
}

func TestRelayChainDeliversDownstream(t *testing.T) {
	src := mustNode(t, testConfig(0, 0))
	srcAddr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)

	relay := mustNode(t, testConfig(1, 4*testLayout.RateBps))
	relayAddr := mustListen(t, relay)
	if _, err := relay.Connect(srcAddr); err != nil {
		t.Fatal(err)
	}
	start := src.Latest(0) - 3
	if start < 0 {
		start = 0
	}
	if err := relay.InitBuffers(start); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < testLayout.K; j++ {
		if err := relay.SubscribeTracked(0, j, start); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, relay.Ready, "relay never ready")

	leaf := mustNode(t, testConfig(2, 0))
	mustListen(t, leaf)
	if _, err := leaf.Connect(relayAddr); err != nil {
		t.Fatal(err)
	}
	leafStart := relay.Latest(0) - 3
	if leafStart < start {
		leafStart = start
	}
	if err := leaf.InitBuffers(leafStart); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < testLayout.K; j++ {
		if err := leaf.SubscribeTracked(1, j, leafStart); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, leaf.Ready, "leaf never ready through the relay")
	time.Sleep(time.Second)
	if ci := leaf.Continuity(); ci < 0.85 {
		t.Fatalf("leaf continuity %.3f through a 4R relay", ci)
	}
}

func TestUploadLimitSharedAcrossChildren(t *testing.T) {
	// A relay with ~1R upload serving two full-stream children: each
	// gets ~R/2 and must fall behind the live edge.
	src := mustNode(t, testConfig(0, 0))
	srcAddr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)

	relay := mustNode(t, testConfig(1, 1.0*testLayout.RateBps))
	relayAddr := mustListen(t, relay)
	if _, err := relay.Connect(srcAddr); err != nil {
		t.Fatal(err)
	}
	start := src.Latest(0)
	if err := relay.InitBuffers(start); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < testLayout.K; j++ {
		if err := relay.SubscribeTracked(0, j, start); err != nil {
			t.Fatal(err)
		}
	}
	var kids []*Node
	for i := int32(2); i <= 3; i++ {
		kid := mustNode(t, testConfig(i, 0))
		mustListen(t, kid)
		if _, err := kid.Connect(relayAddr); err != nil {
			t.Fatal(err)
		}
		if err := kid.InitBuffers(start); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < testLayout.K; j++ {
			if err := kid.SubscribeTracked(1, j, start); err != nil {
				t.Fatal(err)
			}
		}
		kids = append(kids, kid)
	}
	elapsed := 3 * time.Second
	time.Sleep(elapsed)
	// Aggregate child throughput can never exceed the relay's bucket
	// (plus its burst allowance), no matter how fast the source runs —
	// the invariant that makes Eq. (5) capacity sharing real. (On a
	// loaded machine the wall-clock source can fall behind, so we bound
	// throughput rather than requiring an absolute lag.)
	startG := start * int64(testLayout.K)
	var totalBlocks int64
	var progress []int64
	for _, kid := range kids {
		g := kid.Combined() - startG
		progress = append(progress, g)
		totalBlocks += g
	}
	sentBits := float64(totalBlocks) * 8 * float64(testLayout.BlockBytes)
	budget := testLayout.RateBps*elapsed.Seconds()*1.3 + testLayout.RateBps // rate + slack + burst
	if sentBits > budget {
		t.Fatalf("children received %.0f bits, bucket budget %.0f", sentBits, budget)
	}
	// Both children make progress, at comparable rates (shared bucket
	// is roughly fair): within a factor of 3.
	if progress[0] <= 0 || progress[1] <= 0 {
		t.Fatalf("children made no progress: %v", progress)
	}
	ratio := float64(progress[0]) / float64(progress[1])
	if ratio < 0.33 || ratio > 3 {
		t.Fatalf("unfair sharing: %v", progress)
	}
}

func TestBucketEnforcesRate(t *testing.T) {
	// 256 kbit/s bucket; taking 800-byte blocks (6400 bits) as fast as
	// possible for ~400 ms must stay near rate × time + burst.
	b := newBucket(256e3)
	deadline := time.Now().Add(400 * time.Millisecond)
	taken := 0.0
	for time.Now().Before(deadline) {
		if !b.take(6400) {
			t.Fatal("bucket closed unexpectedly")
		}
		taken += 6400
	}
	elapsed := 0.4
	budget := 256e3*elapsed*1.5 + 256e3/4
	if taken > budget {
		t.Fatalf("bucket leaked: %.0f bits in %.1fs (budget %.0f)", taken, elapsed, budget)
	}
	if taken < 256e3*elapsed*0.3 {
		t.Fatalf("bucket starved: %.0f bits in %.1fs", taken, elapsed)
	}
	// Unlimited bucket never blocks.
	unlimited := newBucket(0)
	for i := 0; i < 1000; i++ {
		if !unlimited.take(1e9) {
			t.Fatal("unlimited bucket blocked")
		}
	}
	// Closed bucket releases takers.
	b.close()
	if b.take(1e12) {
		t.Fatal("closed bucket granted tokens")
	}
	var nilBucket *bucket
	if !nilBucket.take(5) {
		t.Fatal("nil bucket should be a no-op")
	}
	nilBucket.close()
}

func TestSubscribeWithoutPartnershipFails(t *testing.T) {
	n := mustNode(t, testConfig(1, 0))
	if err := n.SubscribeTracked(42, 0, 0); err == nil {
		t.Fatal("subscribe without partnership succeeded")
	}
}

func TestDoubleInitRejected(t *testing.T) {
	n := mustNode(t, testConfig(1, 0))
	if err := n.InitBuffers(0); err != nil {
		t.Fatal(err)
	}
	if err := n.InitBuffers(0); err == nil {
		t.Fatal("second InitBuffers accepted")
	}
}

func TestCloseIsIdempotentAndUnblocks(t *testing.T) {
	src := mustNode(t, testConfig(0, 100)) // tiny upload: pushers sleep in the bucket
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
	peer.SubscribeTracked(0, 0, 0)
	time.Sleep(200 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		src.Close()
		src.Close() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
}
