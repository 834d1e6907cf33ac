package netboot

import (
	"errors"
	"testing"
	"time"

	"coolstream/internal/faults"
	"coolstream/internal/sim"
)

// TestShedLadder drives the load meter through both levels with a
// pinned clock: new registrations shed first, renewals and candidates
// keep working, candidates shed only at the hard level, and an idle
// tracker recovers.
func TestShedLadder(t *testing.T) {
	now := time.Unix(1000, 0)
	reg := NewRegistry(RegistryConfig{Clock: func() time.Time { return now }})
	reg.EnableShedding(ShedConfig{MaxOpsPerSec: 50, RetryAfter: 250 * time.Millisecond})

	// Establish a lease before the storm.
	if _, err := reg.Register(1, "a:1", ""); err != nil {
		t.Fatal(err)
	}

	// A quiet tracker admits everything.
	if reg.ShedLevel() != shedNone || !reg.AdmitRegister(2) || !reg.AdmitCandidates() {
		t.Fatal("quiet tracker shed")
	}

	// Burst: 80 ops in one instant → rate 80/s, over the 50/s soft
	// bound but under the 100/s hard one.
	for i := 0; i < 80; i++ {
		reg.BeginOp()()
	}
	if lvl := reg.ShedLevel(); lvl != shedNew {
		t.Fatalf("level %d after soft burst, want %d", lvl, shedNew)
	}
	if reg.AdmitRegister(2) {
		t.Fatal("new registration admitted at soft level")
	}
	if !reg.AdmitRegister(1) {
		t.Fatal("renewal shed — the established swarm must keep its leases")
	}
	if !reg.AdmitCandidates() {
		t.Fatal("candidates shed at soft level")
	}

	// Push past the hard threshold: candidates shed too.
	for i := 0; i < 40; i++ {
		reg.BeginOp()()
	}
	if lvl := reg.ShedLevel(); lvl != shedAll {
		t.Fatalf("level %d after hard burst, want %d", lvl, shedAll)
	}
	if reg.AdmitCandidates() {
		t.Fatal("candidates admitted at hard level")
	}

	if st := reg.ShedStats(); st.NewRegistrations == 0 || st.Candidates == 0 {
		t.Fatalf("shed counters not recorded: %+v", st)
	}

	// Idle recovery: the decayed rate sinks below the bound.
	now = now.Add(3 * time.Second)
	if lvl := reg.ShedLevel(); lvl != shedNone {
		t.Fatalf("level %d after idle, want %d", lvl, shedNone)
	}
	if !reg.AdmitRegister(2) || !reg.AdmitCandidates() {
		t.Fatal("tracker did not recover after idling")
	}
}

// TestShedInFlightDepth exercises the depth bound: requests held open
// past the limit shed new registrations until they drain.
func TestShedInFlightDepth(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	reg.EnableShedding(ShedConfig{MaxInFlight: 4})
	var releases []func()
	for i := 0; i < 6; i++ {
		releases = append(releases, reg.BeginOp())
	}
	if reg.AdmitRegister(9) {
		t.Fatal("registration admitted past the depth bound")
	}
	for _, r := range releases {
		r()
	}
	if !reg.AdmitRegister(9) {
		t.Fatal("registration shed after the depth drained")
	}
}

// TestTCPServerShedsAndRecovers floods a shedding binary tracker with
// new registrations and verifies the refusals are retryable, carry the
// retry-after hint, spare renewals, and clear once the storm stops.
func TestTCPServerShedsAndRecovers(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	reg.EnableShedding(ShedConfig{MaxOpsPerSec: 40, RetryAfter: 200 * time.Millisecond})
	srv := NewTCPServer(reg, TCPServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// An established peer registers while the tracker is quiet.
	est := NewTCPClient(addr)
	defer est.Close()
	if err := est.Register(1, "a:1"); err != nil {
		t.Fatal(err)
	}

	// Storm: no backoff configured, so the first refusal surfaces.
	c := NewTCPClient(addr)
	defer c.Close()
	var shed *UnavailableError
	for i := 0; i < 2000 && shed == nil; i++ {
		err := c.Register(int32(100+i), "b:1")
		if err != nil && !errors.As(err, &shed) {
			t.Fatalf("storm register %d: %v", i, err)
		}
	}
	if shed == nil {
		t.Fatal("storm never shed")
	}
	if shed.RetryAfter != 200*time.Millisecond {
		t.Fatalf("retry-after %v, want 200ms", shed.RetryAfter)
	}
	// Renewals ride through the overload.
	if err := est.Register(1, "a:1"); err != nil {
		t.Fatalf("renewal shed: %v", err)
	}
	// Recovery: once the storm stops the meter decays and new
	// registrations are admitted again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.Register(7777, "c:1"); err == nil {
			break
		} else if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("recovery register: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("tracker never recovered")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestTCPClientHonorsRetryAfter verifies the binary client floors its
// backoff pause at the server's hint.
func TestTCPClientHonorsRetryAfter(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	reg.EnableShedding(ShedConfig{MaxOpsPerSec: 1, RetryAfter: 400 * time.Millisecond})
	srv := NewTCPServer(reg, TCPServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Heat the meter so the first request is shed.
	for i := 0; i < 10; i++ {
		reg.BeginOp()()
	}
	c := NewTCPClient(addr)
	defer c.Close()
	c.SetBackoff(faults.Backoff{Base: sim.Millisecond, Cap: 2 * sim.Millisecond}, 2, 1)
	t0 := time.Now()
	err = c.Register(50, "x:1")
	elapsed := time.Since(t0)
	// Two attempts, one pause between them: the 400ms hint must floor
	// the (tiny) backoff schedule.
	if err == nil {
		// The meter may have decayed under 1 op/s by the retry — fine,
		// as long as the pause respected the hint.
		if elapsed < 350*time.Millisecond {
			t.Fatalf("retry after %v, hint was 400ms", elapsed)
		}
	} else if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("unexpected error: %v", err)
	} else if elapsed < 350*time.Millisecond {
		t.Fatalf("gave up after %v, hint was 400ms", elapsed)
	}
}
