package netboot

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coolstream/internal/faults"
	"coolstream/internal/sim"
)

func newTCPPair(t *testing.T, cfg RegistryConfig) (*TCPServer, *TCPClient) {
	t.Helper()
	srv := NewTCPServer(NewRegistry(cfg), TCPServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := NewTCPClient(addr)
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// TestTCPRegisterCandidatesLeave is the tracker smoke test: the full
// register → candidates → leave → count cycle over a real socket.
func TestTCPRegisterCandidatesLeave(t *testing.T) {
	srv, c := newTCPPair(t, RegistryConfig{Seed: 1})
	for id := int32(1); id <= 5; id++ {
		lease, err := c.RegisterLease(id, "127.0.0.1:9000")
		if err != nil {
			t.Fatal(err)
		}
		if lease != DefaultLeaseTTL {
			t.Fatalf("lease %v, want %v", lease, DefaultLeaseTTL)
		}
	}
	if n, err := c.Count(); err != nil || n != 5 {
		t.Fatalf("count %d err=%v", n, err)
	}
	cands, err := c.Candidates(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 {
		t.Fatalf("candidates %d", len(cands))
	}
	for _, e := range cands {
		if e.ID == 1 || e.Addr == "" {
			t.Fatalf("bad candidate %+v", e)
		}
	}
	if err := c.Leave(2); err != nil {
		t.Fatal(err)
	}
	if srv.Registry().Count() != 4 {
		t.Fatalf("registry count %d after leave", srv.Registry().Count())
	}
	// Requesting more than available returns all (clamped server-side).
	cands, err = c.Candidates(60_000, ExcludeNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 4 {
		t.Fatalf("all candidates %d, want 4", len(cands))
	}
}

// TestTCPOutageRetry drives the graceful-degradation path: with the
// server marked down, requests answer retryable stUnavailable; a
// backoff client rides through a short outage, and the retry counters
// record it.
func TestTCPOutageRetry(t *testing.T) {
	srv, c := newTCPPair(t, RegistryConfig{Seed: 3})
	c.SetBackoff(faults.Backoff{Base: 20 * sim.Millisecond, Cap: 50 * sim.Millisecond, JitterFrac: 0.5}, 10, 1)

	srv.SetDown(true)
	var wg sync.WaitGroup
	wg.Add(1)
	var regErr error
	go func() {
		defer wg.Done()
		regErr = c.Register(1, "x:1")
	}()
	time.Sleep(80 * time.Millisecond)
	srv.SetDown(false)
	wg.Wait()
	if regErr != nil {
		t.Fatalf("register through outage: %v", regErr)
	}
	retried, attempts := c.RetryStats()
	if retried != 1 || attempts == 0 {
		t.Fatalf("retry stats retried=%d attempts=%d", retried, attempts)
	}
	if srv.Registry().Count() != 1 {
		t.Fatalf("count %d after retried register", srv.Registry().Count())
	}

	// Without backoff the outage surfaces immediately as ErrUnavailable.
	srv.SetDown(true)
	c2 := NewTCPClient(srvAddr(t, srv))
	defer c2.Close()
	if err := c2.Register(2, "x:2"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("outage error %v, want ErrUnavailable", err)
	}
}

func srvAddr(t *testing.T, s *TCPServer) string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		t.Fatal("server not listening")
	}
	return s.ln.Addr().String()
}

// TestTCPStopCancelsBackoff is the un-cancellable-sleep regression: a
// client mid-backoff against a dead tracker must abort as soon as its
// stop channel closes, not after the remaining backoff.
func TestTCPStopCancelsBackoff(t *testing.T) {
	c := NewTCPClient("127.0.0.1:1") // nothing listens here
	defer c.Close()
	c.SetBackoff(faults.Backoff{Base: 10 * sim.Second, Cap: 20 * sim.Second}, 5, 7)
	stop := make(chan struct{})
	c.SetStop(stop)

	done := make(chan error, 1)
	go func() { done <- c.Register(1, "x:1") }()
	time.Sleep(100 * time.Millisecond) // let it fail the dial and enter the pause
	start := time.Now()
	close(stop)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("register against dead tracker succeeded")
		}
		if waited := time.Since(start); waited > time.Second {
			t.Fatalf("stop took %v to abort the backoff", waited)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("stop did not abort the backoff pause")
	}
}

// TestTCPBadRequestNotRetried pins retry classification: protocol
// rejections must fail fast even with a generous retry budget.
func TestTCPBadRequestNotRetried(t *testing.T) {
	_, c := newTCPPair(t, RegistryConfig{Seed: 4})
	c.SetBackoff(faults.Backoff{Base: 50 * sim.Millisecond, Cap: 100 * sim.Millisecond}, 10, 1)
	start := time.Now()
	if err := c.Register(1, ""); err == nil {
		t.Fatal("empty addr accepted")
	}
	if retried, _ := c.RetryStats(); retried != 0 {
		t.Fatalf("bad request was retried %d times", retried)
	}
	if time.Since(start) > time.Second {
		t.Fatal("bad request burned the retry budget")
	}
}

// TestTCPPerIPBound pins the bounded per-IP state end-to-end: the
// connection's remote IP is the owner key.
func TestTCPPerIPBound(t *testing.T) {
	_, c := newTCPPair(t, RegistryConfig{Seed: 5, MaxPerOwner: 2})
	if err := c.Register(1, "a:1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(2, "a:2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(3, "a:3"); !errors.Is(err, ErrOwnerLimit) {
		t.Fatalf("third registration: %v, want ErrOwnerLimit", err)
	}
	// Renewals are exempt; leaving frees quota.
	if err := c.Register(1, "a:1"); err != nil {
		t.Fatalf("renewal: %v", err)
	}
	if err := c.Leave(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(3, "a:3"); err != nil {
		t.Fatalf("register after leave: %v", err)
	}
}

// TestTCPMalformedFramesDropConn pins server robustness: garbage,
// oversized, and truncated frames drop that connection without taking
// the server down.
func TestTCPMalformedFramesDropConn(t *testing.T) {
	srv, c := newTCPPair(t, RegistryConfig{Seed: 6})
	addr := srvAddr(t, srv)
	payloads := [][]byte{
		{0xff, 0xff, 0xff, 0xff},             // absurd length
		{0, 0, 0, 0},                         // zero length
		{0, 0, 0, 3, 0xaa, 0xbb, 0xcc},       // unknown op
		{0, 0, 0, 6, byte(opRegister), 0, 0}, // truncated body (conn stalls, read deadline applies)
	}
	for i, p := range payloads[:3] {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		raw.Write(p)
		raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 64)
		// Either an error frame comes back (unknown op) or the conn is
		// dropped; both are acceptable. What matters is below: the
		// server still answers well-formed clients.
		raw.Read(buf)
		raw.Close()
		_ = i
	}
	if err := c.Register(1, "x:1"); err != nil {
		t.Fatalf("server unhealthy after malformed frames: %v", err)
	}
}

// TestTCPIdleTimeout pins the slow-client defence: a connection that
// never sends a complete request is closed by the idle deadline.
func TestTCPIdleTimeout(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Seed: 7})
	srv := NewTCPServer(reg, TCPServerConfig{IdleTimeout: 200 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 16)
	start := time.Now()
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("idle connection was not closed")
	}
	if since := time.Since(start); since > 2*time.Second {
		t.Fatalf("idle close took %v", since)
	}
}

// TestTCPServerSweepsLeases pins the background sweep: with a short
// TTL, a silent registration disappears from Count without any query
// touching it.
func TestTCPServerSweepsLeases(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Seed: 8, LeaseTTL: 300 * time.Millisecond})
	srv := NewTCPServer(reg, TCPServerConfig{SweepEvery: 50 * time.Millisecond})
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg.Register(1, "x:1", "")
	deadline := time.Now().Add(3 * time.Second)
	for reg.Count() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lease never swept; count %d", reg.Count())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestTCPClientThroughFaultInjector pins graceful degradation against
// the internal/faults outage machinery: a dialer wrapped by an
// Injector with a tracker outage window fails during the window and
// recovers after it, through the client's own backoff.
func TestTCPClientThroughFaultInjector(t *testing.T) {
	_, c := newTCPPair(t, RegistryConfig{Seed: 9})
	inj, err := faults.NewInjector(faults.Config{
		TrackerOutages: []faults.Window{{Start: 0, End: 200 * sim.Millisecond}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var now atomic.Int64 // virtual ms
	inj.SetClock(func() sim.Time { return sim.Time(now.Load()) })
	c.SetDialer(inj.TrackerDial(nil))
	c.SetBackoff(faults.Backoff{Base: 20 * sim.Millisecond, Cap: 40 * sim.Millisecond}, 10, 3)

	go func() {
		time.Sleep(60 * time.Millisecond)
		now.Store(300) // outage window [0,200) over
	}()
	if err := c.Register(1, "x:1"); err != nil {
		t.Fatalf("register through injected outage: %v", err)
	}
	if retried, _ := c.RetryStats(); retried == 0 {
		t.Fatal("client never retried through the injected outage")
	}
	if inj.Stats().TrackerRefusals == 0 {
		t.Fatal("injector recorded no tracker refusals")
	}
}
