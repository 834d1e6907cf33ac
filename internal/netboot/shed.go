// Adaptive load shedding for the tracker. The registry keeps a load
// signal — an exponentially-decayed ops-rate plus an in-flight request
// gauge. When the signal crosses the configured bounds the server
// flips answers to the retryable unavailable status with a retry-after
// hint, shedding NEW registrations first: renewals are what keep the
// established swarm's leases (and therefore the candidate set) alive,
// and candidate queries are what let already-admitted joiners finish,
// so both keep working until the hard threshold. The ladder:
//
//	level 1 (soft): shed registrations from unknown IDs
//	level 2 (hard, at HardFactor × the soft bounds): also shed
//	                candidate queries
//
// Leave and count are never shed — they only reduce load.
package netboot

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Shed levels, in escalation order.
const (
	shedNone = iota
	shedNew  // refuse registrations for IDs without a live lease
	shedAll  // additionally refuse candidate queries
)

// DefaultRetryAfter is the retry-after hint on shed responses when the
// config does not override it.
const DefaultRetryAfter = 500 * time.Millisecond

// ShedConfig bounds the tracker's load. The zero value disables
// shedding entirely (no meter is kept).
type ShedConfig struct {
	// MaxOpsPerSec is the soft bound on the decayed ops rate (0 = no
	// rate bound).
	MaxOpsPerSec float64
	// MaxInFlight is the soft bound on concurrently-handled requests
	// (0 = no depth bound).
	MaxInFlight int
	// HardFactor scales the soft bounds up to the hard (shed-all)
	// threshold (default 2).
	HardFactor float64
	// Tau is the decay time constant of the ops-rate estimate (default
	// 1s): roughly "ops per Tau, scaled to per-second".
	Tau time.Duration
	// RetryAfter is the hint carried on shed responses (default
	// DefaultRetryAfter).
	RetryAfter time.Duration
}

func (c *ShedConfig) applyDefaults() {
	if c.HardFactor <= 1 {
		c.HardFactor = 2
	}
	if c.Tau <= 0 {
		c.Tau = time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
}

// enabled reports whether any bound is active.
func (c ShedConfig) enabled() bool { return c.MaxOpsPerSec > 0 || c.MaxInFlight > 0 }

// ShedStats counts refusals by kind.
type ShedStats struct {
	// NewRegistrations shed at the soft level or above.
	NewRegistrations uint64
	// Candidates queries shed at the hard level.
	Candidates uint64
}

// shedState is the registry's load meter plus refusal counters.
type shedState struct {
	cfg ShedConfig

	mu     sync.Mutex
	weight float64   // decayed op count (rate ≈ weight/Tau)
	last   time.Time // last decay timestamp

	inFlight atomic.Int64
	shedRegs atomic.Uint64
	shedCand atomic.Uint64
}

// EnableShedding installs the load meter. Call before serving; a zero
// (or bound-less) config leaves shedding off.
func (r *Registry) EnableShedding(cfg ShedConfig) {
	cfg.applyDefaults()
	if !cfg.enabled() {
		return
	}
	r.shed.Store(&shedState{cfg: cfg, last: r.cfg.Clock()})
}

// BeginOp records one request entering a server handler and returns
// the release to defer. A no-op when shedding is disabled.
func (r *Registry) BeginOp() func() {
	s := r.shed.Load()
	if s == nil {
		return func() {}
	}
	now := r.cfg.Clock()
	s.mu.Lock()
	s.decayLocked(now)
	s.weight++
	s.mu.Unlock()
	s.inFlight.Add(1)
	return func() { s.inFlight.Add(-1) }
}

// decayLocked ages the op count to now.
func (s *shedState) decayLocked(now time.Time) {
	if dt := now.Sub(s.last); dt > 0 {
		s.weight *= math.Exp(-float64(dt) / float64(s.cfg.Tau))
		s.last = now
	}
}

// level computes the current shed level from the rate and depth.
func (s *shedState) level(now time.Time) int {
	s.mu.Lock()
	s.decayLocked(now)
	rate := s.weight / s.cfg.Tau.Seconds()
	s.mu.Unlock()
	depth := float64(s.inFlight.Load())
	lvl := shedNone
	if (s.cfg.MaxOpsPerSec > 0 && rate > s.cfg.MaxOpsPerSec) ||
		(s.cfg.MaxInFlight > 0 && depth > float64(s.cfg.MaxInFlight)) {
		lvl = shedNew
	}
	if (s.cfg.MaxOpsPerSec > 0 && rate > s.cfg.HardFactor*s.cfg.MaxOpsPerSec) ||
		(s.cfg.MaxInFlight > 0 && depth > s.cfg.HardFactor*float64(s.cfg.MaxInFlight)) {
		lvl = shedAll
	}
	return lvl
}

// ShedLevel reports the current escalation level (0 = serving
// everything) — the observability hook for tests and harnesses.
func (r *Registry) ShedLevel() int {
	s := r.shed.Load()
	if s == nil {
		return shedNone
	}
	return s.level(r.cfg.Clock())
}

// RetryAfter is the hint servers attach to shed/down responses (0 when
// shedding is disabled — legacy SetDown answers then carry no hint).
func (r *Registry) RetryAfter() time.Duration {
	s := r.shed.Load()
	if s == nil {
		return 0
	}
	return s.cfg.RetryAfter
}

// ShedStats returns the refusal counters.
func (r *Registry) ShedStats() ShedStats {
	s := r.shed.Load()
	if s == nil {
		return ShedStats{}
	}
	return ShedStats{
		NewRegistrations: s.shedRegs.Load(),
		Candidates:       s.shedCand.Load(),
	}
}

// AdmitRegister reports whether a register for id should be served.
// Renewals — IDs holding a live lease — always pass: refusing them
// would evict the established swarm the shed exists to protect.
func (r *Registry) AdmitRegister(id int32) bool {
	s := r.shed.Load()
	if s == nil {
		return true
	}
	if s.level(r.cfg.Clock()) < shedNew || r.registered(id) {
		return true
	}
	s.shedRegs.Add(1)
	return false
}

// AdmitCandidates reports whether a candidates query should be served
// (refused only at the hard level).
func (r *Registry) AdmitCandidates() bool {
	s := r.shed.Load()
	if s == nil {
		return true
	}
	if s.level(r.cfg.Clock()) < shedAll {
		return true
	}
	s.shedCand.Add(1)
	return false
}

// registered reports whether id holds a live (unexpired) lease.
func (r *Registry) registered(id int32) bool {
	sh := r.shardFor(id)
	sh.mu.Lock()
	l, ok := sh.peers[id]
	sh.mu.Unlock()
	return ok && l.expires.Load() > r.cfg.Clock().UnixNano()
}
