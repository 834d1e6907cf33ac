package netpeer

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"coolstream/internal/faults"
	"coolstream/internal/protocol"
)

func TestConfigValidateWriteTimeout(t *testing.T) {
	bad := testConfig(1, 0)
	bad.WriteTimeout = -time.Second
	if bad.Validate() == nil {
		t.Fatal("negative WriteTimeout accepted")
	}
	n := mustNode(t, testConfig(1, 0))
	if n.cfg.WriteTimeout != DefaultWriteTimeout {
		t.Fatalf("zero WriteTimeout not defaulted: %v", n.cfg.WriteTimeout)
	}
	cfg := testConfig(2, 0)
	cfg.WriteTimeout = 3 * time.Second
	n2 := mustNode(t, cfg)
	if n2.cfg.WriteTimeout != 3*time.Second {
		t.Fatalf("explicit WriteTimeout lost: %v", n2.cfg.WriteTimeout)
	}
}

// deadlineErrConn refuses SetWriteDeadline — the regression case where
// send used to ignore the error and write with no deadline at all.
type deadlineErrConn struct {
	net.Conn
}

type errNo struct{}

func (errNo) Error() string { return "deadline unsupported" }

func (deadlineErrConn) SetWriteDeadline(time.Time) error { return errNo{} }

func TestSendPropagatesDeadlineError(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cn := &conn{peer: 2, wt: time.Second, c: deadlineErrConn{Conn: a}}
	err := cn.send(protocol.Message{Type: protocol.TypeLeave, From: 1, To: 2})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("deadline error swallowed: %v", err)
	}
}

// TestConnectDistinguishesRejectFromReadError pins the handshake error
// split: a wrong-type response must name the offending message type,
// not report a nil read error.
func TestConnectDistinguishesRejectFromReadError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		fr := protocol.NewFrameReader(c)
		if _, err := fr.Read(); err != nil {
			return
		}
		// Answer with a message type that is not part of the handshake
		// at all (a reject is protocol — see below).
		protocol.WriteFrame(c, protocol.Message{Type: protocol.TypePing, From: 9, To: 1})
		// Give the client a moment to read before the deferred close.
		time.Sleep(200 * time.Millisecond)
	}()

	n := mustNode(t, testConfig(1, 0))
	_, err = n.Connect(ln.Addr().String())
	if err == nil {
		t.Fatal("wrong-type handshake accepted")
	}
	if !strings.Contains(err.Error(), "ping") || !strings.Contains(err.Error(), "from 9") {
		t.Fatalf("rejection error lacks response type/source: %v", err)
	}
	if strings.Contains(err.Error(), "<nil>") {
		t.Fatalf("rejection error still reports nil read error: %v", err)
	}

	// A PartnerReject answer is an admission refusal, not a protocol
	// violation: it must surface as a typed *RejectedError naming the
	// refusing peer.
	lnRej, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnRej.Close()
	go func() {
		c, err := lnRej.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := protocol.NewFrameReader(c).Read(); err != nil {
			return
		}
		protocol.WriteFrame(c, protocol.Message{Type: protocol.TypePartnerReject, From: 9, To: 1})
		time.Sleep(200 * time.Millisecond)
	}()
	_, err = n.Connect(lnRej.Addr().String())
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("want *RejectedError, got %v", err)
	}
	if rej.Peer != 9 {
		t.Fatalf("rejecting peer %d, want 9", rej.Peer)
	}

	// I/O failure: the peer hangs up mid-handshake.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	go func() {
		c, err := ln2.Accept()
		if err != nil {
			return
		}
		// Consume the request, then hang up without responding so the
		// client fails on the handshake *read*, not its own write.
		protocol.NewFrameReader(c).Read()
		c.Close()
	}()
	_, err = n.Connect(ln2.Addr().String())
	if err == nil || !strings.Contains(err.Error(), "handshake read") {
		t.Fatalf("read failure not reported as such: %v", err)
	}
}

// TestSelfPartnershipRejected pins the handleInbound guard: a
// PartnerRequest carrying the node's own ID must be refused, never
// registered as a self-partnership.
func TestSelfPartnershipRejected(t *testing.T) {
	n := mustNode(t, testConfig(5, 0))
	addr := mustListen(t, n)

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Impersonate node 5 towards itself.
	if err := protocol.WriteFrame(c, protocol.Message{Type: protocol.TypePartnerRequest, From: 5, To: -1}); err != nil {
		t.Fatal(err)
	}
	fr := protocol.NewFrameReader(c)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := fr.Read()
	if err != nil {
		t.Fatalf("expected an explicit reject, got read error %v", err)
	}
	if resp.Type != protocol.TypePartnerReject {
		t.Fatalf("got %v, want partner-reject", resp.Type)
	}
	waitFor(t, time.Second, func() bool {
		return len(n.Partners()) == 0
	}, "self-partnership registered")
	for _, p := range n.Partners() {
		if p == 5 {
			t.Fatal("node partnered with itself")
		}
	}
}

// TestCloseUnblocksAdaptationMonitorFast pins the close-signal select:
// with a long Check interval, Close must return promptly instead of
// waiting for the next monitor tick to observe n.closed.
func TestCloseUnblocksAdaptationMonitorFast(t *testing.T) {
	cfg := testConfig(1, 0)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustListen(t, n)
	n.EnableAdaptation(AdaptConfig{Ts: 10, Tp: 20, Ta: time.Second, Check: 30 * time.Second, Seed: 1})
	time.Sleep(50 * time.Millisecond) // let the monitor park on its select
	start := time.Now()
	n.Close()
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("Close blocked %v on the adaptation monitor (Check=30s)", el)
	}
}

// TestPartnerDeathOrphansLanes pins the readLoop teardown: when a
// partner's connection dies, its cached BM is forgotten and any lane it
// served is reset to -1 so the adaptation monitor re-subscribes it.
func TestPartnerDeathOrphansLanes(t *testing.T) {
	a := mustNode(t, testConfig(1, 0))
	b := mustNode(t, testConfig(2, 0))
	if err := a.InitBuffers(0); err != nil {
		t.Fatal(err)
	}
	addrB := mustListen(t, b)
	mustListen(t, a)
	if _, err := a.Connect(addrB); err != nil {
		t.Fatal(err)
	}
	if err := a.SubscribeTracked(2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := a.LaneParent(0); got != 2 {
		t.Fatalf("lane parent %d, want 2", got)
	}
	b.Close()
	waitFor(t, 3*time.Second, func() bool {
		return a.LaneParent(0) == -1 && len(a.Partners()) == 0
	}, "dead partner still owns lane 0")
	if _, ok := a.PartnerBM(2); ok {
		t.Fatal("stale BM survived partner death")
	}
}

// TestConcurrentCrossConnectConverges is the duplicate-connection race
// test: both sides dial each other simultaneously, repeatedly; the
// direction tie-break must leave exactly one live conn per peer on both
// ends (never zero — the old cross-eviction bug — and never a stuck
// duplicate), with no goroutine leak. Run under -race.
func TestConcurrentCrossConnectConverges(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		a := mustNode(t, testConfig(1, 0))
		b := mustNode(t, testConfig(2, 0))
		addrA := mustListen(t, a)
		addrB := mustListen(t, b)

		var wg sync.WaitGroup
		wg.Add(2)
		var errA, errB error
		go func() {
			defer wg.Done()
			_, errA = a.Connect(addrB)
		}()
		go func() {
			defer wg.Done()
			_, errB = b.Connect(addrA)
		}()
		wg.Wait()
		if errA != nil || errB != nil {
			t.Fatalf("round %d: connect errors %v / %v", round, errA, errB)
		}

		// Both ends must converge to exactly one live conn for the peer.
		waitFor(t, 2*time.Second, func() bool {
			pa, pb := a.Partners(), b.Partners()
			return len(pa) == 1 && pa[0] == 2 && len(pb) == 1 && pb[0] == 1
		}, "cross-connect did not converge to one partnership per end")

		// The surviving conns must actually work: a frame sent from each
		// end arrives (exercises that the two ends kept the SAME conn).
		if err := a.SubscribeTracked(2, 0, 0); err != nil {
			t.Fatalf("round %d: surviving conn a→b dead: %v", round, err)
		}
		if err := b.SubscribeTracked(1, 0, 0); err != nil {
			t.Fatalf("round %d: surviving conn b→a dead: %v", round, err)
		}
		a.Close()
		b.Close()
	}
	// Goroutine-leak check: all readLoops, pushers and accept loops gone.
	waitFor(t, 3*time.Second, func() bool {
		return runtime.NumGoroutine() <= base+2
	}, "goroutines leaked across cross-connect rounds")
}

// TestDialerFaultInjection wires the fault injector's dialer wrapper
// into Config.Dialer: with refusal probability 1 every Connect fails
// with the injected sentinel, and the refusal is counted.
func TestDialerFaultInjection(t *testing.T) {
	b := mustNode(t, testConfig(2, 0))
	addr := mustListen(t, b)

	in, err := faults.NewInjector(faults.Config{NATRefusalProb: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1, 0)
	cfg.Dialer = in.WrapDial(nil)
	a := mustNode(t, cfg)
	if _, err := a.Connect(addr); !errors.Is(err, faults.ErrRefused) {
		t.Fatalf("injected dial not refused: %v", err)
	}
	if s := in.Stats(); s.NATRefusals != 1 {
		t.Fatalf("refusals %d, want 1", s.NATRefusals)
	}
	if len(a.Partners()) != 0 {
		t.Fatal("refused dial registered a partnership")
	}
}
