package netpeer

import (
	"testing"
	"time"

	"coolstream/internal/protocol"
)

// TestAdaptationSwitchesToHealthyRelayOverTCP is the full §IV-B loop
// on real sockets: a leaf subscribed to a crippled relay detects the
// lag through buffer maps and re-subscribes to a healthy relay.
func TestAdaptationSwitchesToHealthyRelayOverTCP(t *testing.T) {
	src := mustNode(t, testConfig(0, 0))
	srcAddr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)

	// Healthy relay: 6R uplink, keeps up with the source.
	healthy := mustNode(t, testConfig(1, 6*testLayout.RateBps))
	healthyAddr := mustListen(t, healthy)
	if _, err := healthy.Connect(srcAddr); err != nil {
		t.Fatal(err)
	}
	hStart := src.Latest(0) - 2
	if hStart < 0 {
		hStart = 0
	}
	if err := healthy.InitBuffers(hStart); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < testLayout.K; j++ {
		if err := healthy.SubscribeTracked(0, j, hStart); err != nil {
			t.Fatal(err)
		}
	}

	// Crippled relay: tiny uplink (0.2R) — it receives fine but cannot
	// serve a full stream.
	weak := mustNode(t, testConfig(2, 0.2*testLayout.RateBps))
	weakAddr := mustListen(t, weak)
	if _, err := weak.Connect(srcAddr); err != nil {
		t.Fatal(err)
	}
	if err := weak.InitBuffers(hStart); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < testLayout.K; j++ {
		if err := weak.SubscribeTracked(0, j, hStart); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(500 * time.Millisecond)

	// Leaf partners with BOTH relays but subscribes everything to the
	// weak one.
	leaf := mustNode(t, testConfig(3, 0))
	mustListen(t, leaf)
	if _, err := leaf.Connect(weakAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := leaf.Connect(healthyAddr); err != nil {
		t.Fatal(err)
	}
	start := weak.Latest(0) - 2
	if start < 0 {
		start = 0
	}
	if err := leaf.InitBuffers(start); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < testLayout.K; j++ {
		if err := leaf.SubscribeTracked(2, j, start); err != nil {
			t.Fatal(err)
		}
	}
	leaf.EnableAdaptation(AdaptConfig{
		Ts:    10,
		Tp:    15,
		Ta:    300 * time.Millisecond,
		Check: 100 * time.Millisecond,
		Seed:  7,
	})

	// The weak relay serves ~0.2R against a 1R stream: the leaf lags,
	// Inequality (2) fires (healthy's BM advertises the live edge), and
	// lane after lane must migrate to the healthy relay.
	waitFor(t, 10*time.Second, func() bool {
		moved := 0
		for j := 0; j < testLayout.K; j++ {
			if leaf.LaneParent(j) == 1 {
				moved++
			}
		}
		return moved == testLayout.K
	}, "leaf never migrated all lanes to the healthy relay")

	// After migration the leaf catches back towards the live edge.
	waitFor(t, 10*time.Second, func() bool {
		return src.Latest(0)-leaf.Latest(0) < 30
	}, "leaf never caught up after adaptation")
}

func TestUnsubscribeStopsPushing(t *testing.T) {
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
	if err := peer.SubscribeTracked(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return peer.Latest(0) > 5 }, "no blocks flowed")
	// Unsubscribe lane 0; progress must halt.
	cn := peer.connOf(0)
	if cn == nil {
		t.Fatal("no connection")
	}
	if err := cn.send(protocol.Message{
		Type: protocol.TypeUnsubscribe, From: peer.cfg.ID, To: 0, SubStream: 0,
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	frozen := peer.Latest(0)
	time.Sleep(700 * time.Millisecond)
	if after := peer.Latest(0); after > frozen+2 {
		t.Fatalf("pushes continued after unsubscribe: %d -> %d", frozen, after)
	}
}
