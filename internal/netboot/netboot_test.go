package netboot

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"coolstream/internal/faults"
	"coolstream/internal/sim"
)

// TestRegisterCandidatesLeave is the registry smoke test, no socket in
// the way: register → candidates → leave → count.
func TestRegisterCandidatesLeave(t *testing.T) {
	r := NewRegistry(RegistryConfig{Seed: 1})
	for id := int32(1); id <= 5; id++ {
		if _, err := r.Register(id, "127.0.0.1:900"+string(rune('0'+id)), ""); err != nil {
			t.Fatal(err)
		}
	}
	if r.Count() != 5 {
		t.Fatalf("count %d", r.Count())
	}
	cands := r.Candidates(3, 1)
	if len(cands) != 3 {
		t.Fatalf("candidates %d", len(cands))
	}
	for _, e := range cands {
		if e.ID == 1 {
			t.Fatal("excluded id returned")
		}
		if e.Addr == "" {
			t.Fatal("empty addr")
		}
	}
	r.Leave(2)
	if r.Count() != 4 {
		t.Fatalf("count after leave %d", r.Count())
	}
	// Requesting more than available returns all.
	if cands = r.Candidates(100, -1); len(cands) != 4 {
		t.Fatalf("all candidates %d", len(cands))
	}
}

func TestReRegisterUpdatesAddr(t *testing.T) {
	r := NewRegistry(RegistryConfig{Seed: 1})
	r.Register(7, "127.0.0.1:1111", "")
	r.Register(7, "127.0.0.1:2222", "")
	if r.Count() != 1 {
		t.Fatalf("count %d", r.Count())
	}
	if cands := r.Candidates(1, -1); cands[0] != (Entry{ID: 7, Addr: "127.0.0.1:2222"}) {
		t.Fatalf("entry %+v", cands[0])
	}
}

// TestCountEndpoint pins the tracker's count op over the wire: it
// follows register and leave, and a renewal is not a second peer.
func TestCountEndpoint(t *testing.T) {
	_, c := newTCPPair(t, RegistryConfig{Seed: 3})
	wantCount := func(want int) {
		t.Helper()
		if n, err := c.Count(); err != nil || n != want {
			t.Fatalf("count %d err=%v, want %d", n, err, want)
		}
	}
	wantCount(0)
	c.Register(1, "a:1")
	c.Register(2, "b:1")
	c.Register(1, "a:1")
	wantCount(2)
	c.Leave(1)
	wantCount(1)
}

// TestCandidatesVary pins that candidate sampling is random per query,
// not a fixed prefix of the registry.
func TestCandidatesVary(t *testing.T) {
	r := NewRegistry(RegistryConfig{Seed: 1})
	for id := int32(1); id <= 30; id++ {
		r.Register(id, "x:1", "")
	}
	a := r.Candidates(5, ExcludeNone)
	varied := false
	for i := 0; i < 10 && !varied; i++ {
		b := r.Candidates(5, ExcludeNone)
		for j := range b {
			if b[j].ID != a[j].ID {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("candidate sampling is constant")
	}
}

// flakyDialer fails the first `failures` dials, then dials for real —
// a tracker recovering from an outage, with every attempt counted.
type flakyDialer struct {
	failures int32
	seen     atomic.Int32
}

func (f *flakyDialer) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	if f.seen.Add(1) <= f.failures {
		return nil, errors.New("injected dial failure")
	}
	return net.DialTimeout(network, addr, timeout)
}

// TestClientRetriesThroughOutage pins the client's retry accounting
// exactly: one retried request and one pause per failed attempt; an
// outage longer than the attempt budget surfaces after exactly that
// many tries; without SetBackoff a failure is immediate.
func TestClientRetriesThroughOutage(t *testing.T) {
	srv, c := newTCPPair(t, RegistryConfig{Seed: 9})
	flaky := &flakyDialer{failures: 3}
	c.SetDialer(flaky.dial)
	c.SetBackoff(faults.Backoff{Base: sim.Millisecond, Cap: 4 * sim.Millisecond, JitterFrac: 0.5}, 5, 42)
	if err := c.Register(1, "127.0.0.1:9001"); err != nil {
		t.Fatalf("register through outage failed: %v", err)
	}
	if srv.Registry().Count() != 1 {
		t.Fatalf("registry count %d after retried register", srv.Registry().Count())
	}
	if retried, attempts := c.RetryStats(); retried != 1 || attempts != 3 {
		t.Fatalf("retry stats retried=%d attempts=%d, want 1/3", retried, attempts)
	}

	// Outage longer than the attempt budget: the error surfaces.
	flaky2 := &flakyDialer{failures: 100}
	c2 := NewTCPClient(srvAddr(t, srv))
	defer c2.Close()
	c2.SetDialer(flaky2.dial)
	c2.SetBackoff(faults.Backoff{Base: sim.Millisecond, Cap: 2 * sim.Millisecond}, 3, 7)
	if err := c2.Register(2, "x:1"); err == nil {
		t.Fatal("register through permanent outage succeeded")
	}
	if got := flaky2.seen.Load(); got != 3 {
		t.Fatalf("attempt-limited client dialed %d times, want 3", got)
	}

	// Without SetBackoff a failure is immediate (one dial).
	flaky3 := &flakyDialer{failures: 100}
	c3 := NewTCPClient(srvAddr(t, srv))
	defer c3.Close()
	c3.SetDialer(flaky3.dial)
	if err := c3.Register(3, "x:1"); err == nil {
		t.Fatal("no-backoff client retried its way through")
	}
	if got := flaky3.seen.Load(); got != 1 {
		t.Fatalf("no-backoff client dialed %d times, want 1", got)
	}
}

// TestCandidatesParamValidation pins the candidates query's two
// parameters end to end over the wire. exclude: a query that excludes
// nobody must not default to excluding ID 0 (the source, typically —
// the old tracker's malformed-exclude bug), while an explicit 0 does.
// n: an oversized or non-positive n is clamped or defaulted, not an
// error.
func TestCandidatesParamValidation(t *testing.T) {
	_, c := newTCPPair(t, RegistryConfig{Seed: 11})
	if err := c.Register(0, "source:1"); err != nil {
		t.Fatal(err)
	}
	cands, err := c.Candidates(5, ExcludeNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0] != (Entry{ID: 0, Addr: "source:1"}) {
		t.Fatalf("peer 0 missing without an exclude: %+v", cands)
	}
	if cands, err = c.Candidates(5, 0); err != nil || len(cands) != 0 {
		t.Fatalf("exclude=0 returned %+v (err %v)", cands, err)
	}
	for _, n := range []int{1_000_000, 0, -5} {
		if cands, err = c.Candidates(n, ExcludeNone); err != nil || len(cands) != 1 {
			t.Fatalf("n=%d: %v %+v", n, err, cands)
		}
	}
}
