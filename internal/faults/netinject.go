package faults

import (
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// Injection sentinels, distinguishable from genuine network errors
// with errors.Is.
var (
	// ErrRefused marks a dial refused by the NAT-refusal fault.
	ErrRefused = errors.New("faults: connection refused (injected)")
	// ErrOutage marks a request dropped inside an outage window.
	ErrOutage = errors.New("faults: service outage (injected)")
)

// DialFunc matches the dialer signature of internal/netpeer.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// Injector carries a fault plan onto the live-socket engine: it wraps
// dial functions with the NAT-refusal fault and the tracker outage
// windows, and the log client's HTTP transport with the log outage
// windows. Refusal decisions come from a seeded RNG behind a mutex, so
// a fixed sequence of attempts sees a fixed sequence of refusals;
// outage windows are evaluated against a virtual clock that defaults
// to wall time elapsed since construction.
type Injector struct {
	mu    sync.Mutex
	sch   *Schedule
	rng   *xrand.RNG
	clock func() sim.Time
}

// NewInjector validates cfg and builds an injector seeded with seed.
func NewInjector(cfg Config, seed uint64) (*Injector, error) {
	sch, err := NewSchedule(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	return &Injector{
		sch: sch,
		rng: xrand.New(seed).SplitLabeled("netinject"),
		clock: func() sim.Time {
			return sim.Time(time.Since(start).Milliseconds())
		},
	}, nil
}

// SetClock replaces the outage-window clock (tests pin virtual time).
func (in *Injector) SetClock(fn func() sim.Time) {
	in.mu.Lock()
	in.clock = fn
	in.mu.Unlock()
}

// Stats returns a copy of the firing counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.sch.Stats
}

// refuseDial draws one refusal decision.
func (in *Injector) refuseDial() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.sch.Cfg.NATRefusalProb <= 0 {
		return false
	}
	if in.rng.Bool(in.sch.Cfg.NATRefusalProb) {
		in.sch.Stats.NATRefusals++
		return true
	}
	return false
}

// WrapDial returns a dialer that refuses attempts with the plan's
// NAT-refusal probability before delegating to dial (nil dial means
// net.DialTimeout).
func (in *Injector) WrapDial(dial DialFunc) DialFunc {
	if dial == nil {
		dial = net.DialTimeout
	}
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		if in.refuseDial() {
			return nil, ErrRefused
		}
		return dial(network, addr, timeout)
	}
}

// TrackerDial wraps dial (nil = net.DialTimeout) so attempts fail with
// ErrOutage during tracker outage windows (netboot.TCPClient.SetDialer
// takes the result). Firings land in the TrackerRefusals counter.
func (in *Injector) TrackerDial(dial DialFunc) DialFunc {
	if dial == nil {
		dial = net.DialTimeout
	}
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		in.mu.Lock()
		down := in.sch.TrackerDown(in.clock())
		if down {
			in.sch.Stats.TrackerRefusals++
		}
		in.mu.Unlock()
		if down {
			return nil, ErrOutage
		}
		return dial(network, addr, timeout)
	}
}

// logOutageTransport fails round trips inside log-server outage
// windows.
type logOutageTransport struct {
	in    *Injector
	inner http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (t *logOutageTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.in.mu.Lock()
	down := t.in.sch.LogDown(t.in.clock())
	t.in.mu.Unlock()
	if down {
		return nil, ErrOutage
	}
	return t.inner.RoundTrip(req)
}

// LogTransport wraps inner (nil = http.DefaultTransport) so requests
// fail during log-server outage windows. Dropped reports are counted
// by the client-side buffered sink, not here.
func (in *Injector) LogTransport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &logOutageTransport{in: in, inner: inner}
}
