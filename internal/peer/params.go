// Package peer implements the Coolstreaming node — membership manager,
// partnership manager and stream manager (Fig. 1 of the paper) — and
// the World that advances a population of such nodes over the hybrid
// fluid/event simulator.
//
// Stream transfer is fluid: each (child, sub-stream) subscription has a
// piecewise-linear progress value H (the per-sub-stream sequence number
// of the latest received block, exactly the H of the paper's §IV), and
// the parent's upload capacity is divided among its transmissions by a
// water-filling allocator generalising Eq. (5). Control actions — BM
// exchange, the adaptation Inequalities (1) and (2), parent
// re-selection under the cool-down timer T_a, join/leave — happen at
// discrete ticks and events.
package peer

import (
	"fmt"

	"coolstream/internal/buffer"
	"coolstream/internal/gossip"
	"coolstream/internal/sim"
)

// Params collects the protocol and system parameters (Table I plus the
// deployment constants of §V-A).
type Params struct {
	// Layout fixes R, K and the block size.
	Layout buffer.Layout

	// BufferSeconds is B, the buffer length in seconds of stream.
	BufferSeconds float64
	// Ts is the out-of-synchronisation threshold in per-sub-stream
	// blocks: the largest tolerated deviation between sub-streams
	// (Inequality (1)).
	Ts int64
	// Tp is the partner-lag threshold in per-sub-stream blocks
	// (Inequality (2)); the join position is shifted back by Tp from
	// the newest block visible at partners (§IV-A).
	Tp int64
	// Ta is the adaptation cool-down period: a node re-selects a parent
	// at most once per Ta.
	Ta sim.Time

	// MaxPartners is M, the partner bound for ordinary peers.
	MaxPartners int
	// MaxServerPartners is the partner bound for dedicated servers.
	MaxServerPartners int
	// MinPartners is the partnership level below which a node actively
	// recruits replacements.
	MinPartners int
	// DesiredPartners is the recruiting target.
	DesiredPartners int

	// BMPeriod is the buffer-map exchange period between partners; a
	// node sees partner state at this staleness.
	BMPeriod sim.Time
	// GossipPeriod is the membership-exchange period for mCache
	// refresh between partners.
	GossipPeriod sim.Time
	// ReportPeriod is the status-report period (5 minutes deployed).
	ReportPeriod sim.Time

	// ReadySeconds is the contiguous buffer (seconds of stream) needed
	// before the media player starts.
	ReadySeconds float64
	// JoinTimeout aborts a session that has not reached media-ready.
	JoinTimeout sim.Time
	// RetryDelay is the pause before a failed session rejoins.
	RetryDelay sim.Time

	// BootstrapCandidates is the list size handed out at join.
	BootstrapCandidates int
	// MCacheCapacity bounds the per-node membership cache.
	MCacheCapacity int

	// BootstrapRTT is the join round-trip to the bootstrap node.
	BootstrapRTT sim.Time

	// TraversalProb is the NAT-to-NAT hole-punching success rate.
	TraversalProb float64

	// Allocator selects how a parent divides upload capacity among its
	// sub-stream transmissions: "waterfill" (default; need-aware
	// max-min fairness) or "equalsplit" (the paper's literal Eq. (5):
	// capacity/D regardless of need). The ablation experiment E13
	// compares them.
	Allocator string

	// ControlLossProb injects control-plane unreliability: each
	// partnership handshake is lost with this probability, and each
	// due buffer-map refresh is skipped with it (the partner's view
	// stays stale one more period). Robustness experiment E16.
	ControlLossProb float64

	// ParentSelection picks among eligible partners when subscribing a
	// sub-stream: "random" (the paper's randomized choice — its
	// headline scaling claim) or "freshest" (greedy: the partner
	// advertising the highest sequence number). Ablation E18 tests the
	// claim that randomness avoids pile-ups on the freshest peers.
	ParentSelection string
}

// DefaultParams returns the Table I configuration used throughout the
// experiments: 768 kbps (the paper's §V-A TV-quality rate), K = 4,
// 12 kB blocks (2 blocks/s per sub-stream).
func DefaultParams() Params {
	return Params{
		Layout:              buffer.Layout{K: 4, RateBps: 768e3, BlockBytes: 12000},
		BufferSeconds:       120,
		Ts:                  20, // 10 s of stream
		Tp:                  40, // 20 s of stream
		Ta:                  20 * sim.Second,
		MaxPartners:         8,
		MaxServerPartners:   200,
		MinPartners:         2,
		DesiredPartners:     5,
		BMPeriod:            5 * sim.Second,
		GossipPeriod:        15 * sim.Second,
		ReportPeriod:        5 * sim.Minute,
		ReadySeconds:        10,
		JoinTimeout:         60 * sim.Second,
		RetryDelay:          3 * sim.Second,
		BootstrapCandidates: 20,
		MCacheCapacity:      60,
		BootstrapRTT:        200 * sim.Millisecond,
		TraversalProb:       0.05,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if err := p.Layout.Validate(); err != nil {
		return err
	}
	if p.BufferSeconds <= 0 {
		return fmt.Errorf("peer: BufferSeconds = %v", p.BufferSeconds)
	}
	if p.Ts <= 0 || p.Tp <= 0 {
		return fmt.Errorf("peer: thresholds Ts=%d Tp=%d must be positive", p.Ts, p.Tp)
	}
	if p.Ta <= 0 {
		return fmt.Errorf("peer: Ta = %v", p.Ta)
	}
	if p.MaxPartners < 1 || p.MaxServerPartners < 1 {
		return fmt.Errorf("peer: partner bounds %d/%d", p.MaxPartners, p.MaxServerPartners)
	}
	// mCache entries advertise a node's partner count in a packed slot.
	if p.MaxPartners > gossip.MaxPartnerCount || p.MaxServerPartners > gossip.MaxPartnerCount {
		return fmt.Errorf("peer: partner bounds %d/%d exceed the mCache slot's %d",
			p.MaxPartners, p.MaxServerPartners, gossip.MaxPartnerCount)
	}
	if p.MinPartners < 1 || p.DesiredPartners < p.MinPartners || p.DesiredPartners > p.MaxPartners {
		return fmt.Errorf("peer: partner targets min=%d desired=%d max=%d",
			p.MinPartners, p.DesiredPartners, p.MaxPartners)
	}
	if p.BMPeriod <= 0 || p.ReportPeriod <= 0 || p.GossipPeriod <= 0 {
		return fmt.Errorf("peer: periods must be positive")
	}
	if p.ReadySeconds <= 0 || p.JoinTimeout <= 0 {
		return fmt.Errorf("peer: startup parameters must be positive")
	}
	if p.BootstrapCandidates < 1 || p.MCacheCapacity < p.BootstrapCandidates {
		return fmt.Errorf("peer: mCache %d must hold bootstrap list %d",
			p.MCacheCapacity, p.BootstrapCandidates)
	}
	if p.MCacheCapacity > gossip.MaxCapacity {
		return fmt.Errorf("peer: mCache %d exceeds the %d-entry bound", p.MCacheCapacity, gossip.MaxCapacity)
	}
	if p.TraversalProb < 0 || p.TraversalProb > 1 {
		return fmt.Errorf("peer: TraversalProb = %v", p.TraversalProb)
	}
	switch p.Allocator {
	case "", "waterfill", "equalsplit":
	default:
		return fmt.Errorf("peer: unknown allocator %q", p.Allocator)
	}
	if p.ControlLossProb < 0 || p.ControlLossProb > 1 {
		return fmt.Errorf("peer: ControlLossProb = %v", p.ControlLossProb)
	}
	switch p.ParentSelection {
	case "", "random", "freshest":
	default:
		return fmt.Errorf("peer: unknown parent selection %q", p.ParentSelection)
	}
	return nil
}

// EqualSplitAllocator reports whether the literal Eq. (5) allocator is
// selected.
func (p Params) EqualSplitAllocator() bool { return p.Allocator == "equalsplit" }

// BufferBlocks returns B in per-sub-stream blocks.
func (p Params) BufferBlocks() int64 {
	return int64(p.Layout.SecondsToSeq(p.BufferSeconds))
}

// ReadyBlocks returns the startup threshold in per-sub-stream blocks.
func (p Params) ReadyBlocks() float64 {
	return p.Layout.SecondsToSeq(p.ReadySeconds)
}
