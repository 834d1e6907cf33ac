package faults

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"coolstream/internal/sim"
)

func TestWindowContains(t *testing.T) {
	w := Window{Start: 10 * sim.Second, End: 20 * sim.Second}
	for _, tc := range []struct {
		t    sim.Time
		want bool
	}{
		{0, false},
		{10 * sim.Second, true},
		{15 * sim.Second, true},
		{20 * sim.Second, false}, // half-open
		{25 * sim.Second, false},
	} {
		if got := w.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{
		TrackerOutages:  []Window{{Start: sim.Second, End: 2 * sim.Second}},
		LogOutages:      []Window{{Start: 0, End: sim.Second}},
		NATRefusalProb:  0.02,
		PartnerKillRate: 0.1,
		BurstLoss:       []LossWindow{{Window: Window{Start: 0, End: sim.Second}, Frac: 0.5}},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if !good.Enabled() {
		t.Fatal("good config reported disabled")
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config reported enabled")
	}
	for _, bad := range []Config{
		{TrackerOutages: []Window{{Start: 2 * sim.Second, End: sim.Second}}},
		{NATRefusalProb: 1.5},
		{PartnerKillRate: -1},
		{BurstLoss: []LossWindow{{Window: Window{Start: 0, End: sim.Second}, Frac: 0}}},
		{BurstLoss: []LossWindow{{Window: Window{Start: 0, End: sim.Second}, Frac: 2}}},
	} {
		if bad.Validate() == nil {
			t.Errorf("invalid config accepted: %+v", bad)
		}
	}
}

func TestScheduleQueries(t *testing.T) {
	sch, err := NewSchedule(Config{
		TrackerOutages: []Window{{Start: sim.Minute, End: 2 * sim.Minute}},
		LogOutages:     []Window{{Start: 30 * sim.Second, End: 40 * sim.Second}},
		BurstLoss: []LossWindow{
			{Window: Window{Start: 0, End: 10 * sim.Second}, Frac: 0.3},
			{Window: Window{Start: 5 * sim.Second, End: 15 * sim.Second}, Frac: 0.8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sch.TrackerDown(90*sim.Second) || sch.TrackerDown(10*sim.Second) {
		t.Fatal("tracker window misjudged")
	}
	if !sch.LogDown(35*sim.Second) || sch.LogDown(45*sim.Second) {
		t.Fatal("log window misjudged")
	}
	if got := sch.LossFrac(7 * sim.Second); got != 0.8 {
		t.Fatalf("overlapping loss windows: got %v, want max 0.8", got)
	}
	if got := sch.LossFrac(12 * sim.Second); got != 0.8 {
		t.Fatalf("loss at 12s: got %v", got)
	}
	if got := sch.LossFrac(20 * sim.Second); got != 0 {
		t.Fatalf("loss outside windows: got %v", got)
	}
}

func TestBackoffDeterministicCappedJittered(t *testing.T) {
	b := Backoff{Base: 2 * sim.Second, Cap: 30 * sim.Second, JitterFrac: 0.5}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic: same (attempt, key) → same delay.
	for attempt := 1; attempt <= 10; attempt++ {
		if a, bb := b.Delay(attempt, 7), b.Delay(attempt, 7); a != bb {
			t.Fatalf("attempt %d: non-deterministic delay %v vs %v", attempt, a, bb)
		}
	}
	// Jitter bounds: delay within [0.75, 1.25] × nominal, capped.
	for attempt := 1; attempt <= 12; attempt++ {
		nominal := 2 * sim.Second << (attempt - 1)
		if nominal > 30*sim.Second {
			nominal = 30 * sim.Second
		}
		for key := uint64(0); key < 50; key++ {
			d := b.Delay(attempt, key)
			lo := sim.Time(float64(nominal) * 0.749)
			hi := sim.Time(float64(nominal) * 1.251)
			if d < lo || d > hi {
				t.Fatalf("attempt %d key %d: delay %v outside [%v,%v]", attempt, key, d, lo, hi)
			}
		}
	}
	// Distinct keys de-synchronise.
	if b.Delay(3, 1) == b.Delay(3, 2) && b.Delay(4, 1) == b.Delay(4, 2) {
		t.Fatal("jitter does not separate keys")
	}
	// Disabled backoff.
	var zero Backoff
	if zero.Enabled() || zero.Delay(3, 1) != 0 {
		t.Fatal("zero backoff must be disabled")
	}
	// Invalid configs.
	if (Backoff{Base: sim.Second, Cap: 0}).Validate() == nil {
		t.Fatal("cap < base accepted")
	}
	if (Backoff{Base: sim.Second, Cap: sim.Second, JitterFrac: 2}).Validate() == nil {
		t.Fatal("jitter > 1 accepted")
	}
}

func TestBackoffDuration(t *testing.T) {
	b := Backoff{Base: 100 * sim.Millisecond, Cap: sim.Second}
	if got := b.Duration(1, 0); got != 100*time.Millisecond {
		t.Fatalf("Duration = %v", got)
	}
}

func TestInjectorDialRefusalDeterministic(t *testing.T) {
	run := func() ([]bool, int) {
		in, err := NewInjector(Config{NATRefusalProb: 0.3}, 99)
		if err != nil {
			t.Fatal(err)
		}
		dial := in.WrapDial(func(network, addr string, timeout time.Duration) (net.Conn, error) {
			return nil, nil // a "successful" dial for the purpose of this test
		})
		out := make([]bool, 200)
		for i := range out {
			_, err := dial("tcp", "127.0.0.1:1", time.Second)
			if err != nil && !errors.Is(err, ErrRefused) {
				t.Fatalf("unexpected dial error: %v", err)
			}
			out[i] = err != nil
		}
		return out, in.Stats().NATRefusals
	}
	a, na := run()
	b, nb := run()
	refused := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("refusal sequence diverged at %d", i)
		}
		if a[i] {
			refused++
		}
	}
	if refused == 0 || refused == len(a) {
		t.Fatalf("degenerate refusal count %d/%d", refused, len(a))
	}
	if na != refused || nb != refused {
		t.Fatalf("stats %d/%d, want %d", na, nb, refused)
	}
}

func TestInjectorTransportsRespectWindows(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	in, err := NewInjector(Config{
		LogOutages: []Window{{Start: 2 * sim.Minute, End: 3 * sim.Minute}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	in.SetClock(func() sim.Time { return now })

	logHC := &http.Client{Transport: in.LogTransport(nil)}

	// Log server is up at t=0.
	if _, err := logHC.Get(srv.URL); err != nil {
		t.Fatalf("log request outside outage failed: %v", err)
	}
	// Inside the log outage.
	now = 2*sim.Minute + 10*sim.Second
	if _, err := logHC.Get(srv.URL); err == nil || !errors.Is(err, ErrOutage) {
		t.Fatalf("log request during outage: err = %v", err)
	}
	// After it.
	now = 3*sim.Minute + sim.Second
	if _, err := logHC.Get(srv.URL); err != nil {
		t.Fatalf("log request after outage failed: %v", err)
	}
	if hits != 2 {
		t.Fatalf("server hits = %d, want 2", hits)
	}
}
