// The join engine: a newcomer's bounded-retry path from "knows the
// tracker" to "first block received" (§III-B join, §VI flash crowd).
// The paper's Fig. 10 measures exactly this loop — how many retries a
// joining client needs before it succeeds, and how that distribution
// stretches when a flash crowd hits. The engine walks tracker
// candidates and reject-alternates with deterministic backoff, honours
// the tracker's retry-after hints, and instruments every step so the
// surge harness can report a retries-to-join distribution comparable
// to the fluid model's Fig10c experiment.
package netpeer

import (
	"errors"
	"fmt"
	"time"

	"coolstream/internal/faults"
	"coolstream/internal/netboot"
	"coolstream/internal/protocol"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// The join's fixed policy: how many candidates one tracker query asks
// for, how many partner dials one join may spend, the Tp shift — how
// many blocks per lane behind the best advertised live edge a newcomer
// starts (§IV-A) — and how long a lane subscription may stay silent
// before the engine re-plans it onto another partner (the recovery from
// an UploadSlots refusal).
const (
	joinCandidatesPerAsk = 8
	joinMaxAttempts      = 16
	joinShift            = 3
	joinSubscribeGrace   = 250 * time.Millisecond
)

// JoinConfig drives one node's join attempt.
type JoinConfig struct {
	// Boot is the tracker surface (required).
	Boot Bootstrap
	// SelfAddr is this node's listen address, registered with the
	// tracker when Register is set.
	SelfAddr string
	// Register makes the join loop register with the tracker first
	// (retrying through overload like everything else). Leave it unset
	// when the caller registers separately.
	Register bool
	// TargetPartners is how many partnerships to establish before
	// subscribing lanes (default 3, floor 1). An overlay with fewer
	// peers than that settles for everyone the tracker knows.
	TargetPartners int
	// Backoff paces retry rounds (default 100ms..800ms, jitter 0.5).
	// The tracker's retry-after hint floors each pause.
	Backoff faults.Backoff
	// Deadline bounds the whole join, dial through first block
	// (default 8s).
	Deadline time.Duration
}

func (c *JoinConfig) applyDefaults() {
	if c.TargetPartners <= 0 {
		c.TargetPartners = 3
	}
	if !c.Backoff.Enabled() {
		c.Backoff = faults.Backoff{
			Base: 100 * sim.Millisecond, Cap: 800 * sim.Millisecond, JitterFrac: 0.5,
		}
	}
	if c.Deadline <= 0 {
		c.Deadline = 8 * time.Second
	}
}

// JoinStats instruments one join attempt — the real-socket counterpart
// of the fluid model's retries-to-join measurement (paper Fig. 10).
type JoinStats struct {
	// Attempts counts partner dials; FailedAttempts the unsuccessful
	// ones (I/O failures and admission rejects).
	Attempts       int `json:"attempts"`
	FailedAttempts int `json:"failed_attempts"`
	// Retries is the Fig. 10 quantity: how many times the joiner had to
	// try again — failed dials plus tracker-unavailable rounds.
	Retries int `json:"retries"`
	// Rejects counts admission rejects among the failures;
	// AlternatesLearned the redirect candidates they carried.
	Rejects           int `json:"rejects"`
	AlternatesLearned int `json:"alternates_learned"`
	// TrackerAsks counts candidate queries; TrackerUnavailable the ones
	// shed by the overloaded tracker; RetryAfterWaits the pauses whose
	// length came from a server retry-after hint rather than the local
	// backoff schedule.
	TrackerAsks        int `json:"tracker_asks"`
	TrackerUnavailable int `json:"tracker_unavailable"`
	RetryAfterWaits    int `json:"retry_after_waits"`
	// LaneRetries counts lane subscriptions re-planned onto another
	// partner after staying silent (UploadSlots refusals surface here).
	LaneRetries int `json:"lane_retries"`
	// Partners is the partnership count when the join settled.
	Partners int `json:"partners"`
	// Joined reports overall success: at least one partner and a first
	// block within the deadline.
	Joined bool `json:"joined"`
	// TimeToPartner and TimeToFirstBlock stamp the two join milestones
	// (zero when never reached).
	TimeToPartner    time.Duration `json:"time_to_partner_ns"`
	TimeToFirstBlock time.Duration `json:"time_to_first_block_ns"`
}

// Join runs the bounded-retry join loop: register (optionally), walk
// tracker candidates and reject-alternates until TargetPartners
// partnerships exist (or the attempt budget is spent), then initialise
// buffers at the Tp-shifted position and subscribe lanes — re-planning
// refused lanes — until the first block lands. The returned stats are
// meaningful even on error. Join returns early when the node is closed.
func (n *Node) Join(cfg JoinConfig) (JoinStats, error) {
	cfg.applyDefaults()
	var st JoinStats
	if cfg.Boot == nil {
		return st, fmt.Errorf("netpeer: join needs a Bootstrap")
	}
	start := time.Now()
	deadline := start.Add(cfg.Deadline)

	// --- Phase 1: partnerships. ---
	var queue []candidate
	seen := map[int32]bool{n.cfg.ID: true}
	enqueue := func(id int32, addr string) bool {
		if addr == "" || addr == n.Addr() || seen[id] || n.connOf(id) != nil {
			return false // unusable, ourselves, tried already, or a partner already
		}
		seen[id] = true
		queue = append(queue, candidate{id: id, addr: addr})
		return true
	}
	registered := !cfg.Register
	// dialNext pops one candidate (asking the tracker when the queue is
	// dry) and dials it, folding rejects' alternates back into the
	// queue. It reports whether it made progress; lastErr carries the
	// failure (nil for an admission reject — a redirect, not a failure
	// mode worth a pause). settled is set when the tracker's answer names
	// nobody but partners: the overlay is smaller than the target.
	var lastErr error
	settled := false
	dialNext := func() bool {
		lastErr = nil
		if len(queue) == 0 {
			st.TrackerAsks++
			cands, err := cfg.Boot.Candidates(joinCandidatesPerAsk, n.cfg.ID)
			if err != nil {
				if errors.Is(err, netboot.ErrUnavailable) {
					st.TrackerUnavailable++
				}
				lastErr = err
				return false
			}
			settled = len(cands) > 0
			for _, e := range cands {
				if n.connOf(e.ID) == nil {
					settled = false
				}
				enqueue(e.ID, e.Addr)
			}
			if len(queue) == 0 {
				return false
			}
		}
		c := queue[0]
		queue = queue[1:]
		st.Attempts++
		_, err := n.Connect(c.addr)
		if err == nil {
			return true
		}
		st.FailedAttempts++
		var rej *RejectedError
		if errors.As(err, &rej) {
			st.Rejects++
			st.Retries++
			for _, e := range rej.Alternates {
				if enqueue(e.ID, e.Addr) {
					st.AlternatesLearned++
				}
			}
			return true
		}
		lastErr = err
		return true
	}
	round := 0
	pause := func(err error) bool {
		round++
		st.Retries++
		d := cfg.Backoff.Duration(round, uint64(uint32(n.cfg.ID)))
		var ue *netboot.UnavailableError
		if errors.As(err, &ue) && ue.RetryAfter > d {
			d = ue.RetryAfter
			st.RetryAfterWaits++
		}
		select {
		case <-time.After(d):
			return true
		case <-n.done:
			return false
		}
	}
	for time.Now().Before(deadline) && len(n.Partners()) < cfg.TargetPartners {
		select {
		case <-n.done:
			return st, fmt.Errorf("netpeer: join aborted: node closed")
		default:
		}
		if !registered {
			if err := cfg.Boot.Register(n.cfg.ID, cfg.SelfAddr); err != nil {
				if errors.Is(err, netboot.ErrUnavailable) {
					st.TrackerUnavailable++
				}
				if !pause(err) {
					return st, fmt.Errorf("netpeer: join aborted: node closed")
				}
				continue
			}
			registered = true
		}
		if st.Attempts >= joinMaxAttempts {
			break
		}
		progressed := dialNext()
		if settled {
			break
		}
		if progressed && lastErr == nil {
			continue
		}
		if !pause(lastErr) {
			return st, fmt.Errorf("netpeer: join aborted: node closed")
		}
		if !progressed && lastErr == nil {
			// The tracker had nothing new: re-open everyone we have
			// already tried (they may have shed load since).
			for id := range seen {
				if id != n.cfg.ID {
					delete(seen, id)
				}
			}
		}
	}
	st.Partners = len(n.Partners())
	if st.Partners == 0 {
		return st, fmt.Errorf("netpeer: join failed: no partners after %d attempts", st.Attempts)
	}
	st.TimeToPartner = time.Since(start)

	// --- Phase 2: buffers and lanes. ---
	// The edge wait is capped well under the deadline: when no partner
	// advertises progress (a clique of fellow joiners), the lane phase
	// below must still get its chance to widen the partner set.
	startSeq := n.waitForJoinStart(min(time.Until(deadline), 2*time.Second))
	if err := n.InitBuffers(startSeq); err != nil {
		return st, err
	}
	k := n.cfg.Layout.K
	laneTried := make([]map[int32]bool, k)
	laneAssigned := make([]bool, k)
	laneMark := make([]int64, k)  // lane progress at the last round
	laneStalled := make([]int, k) // consecutive progress-free rounds
	for j := range laneTried {
		laneTried[j] = map[int32]bool{}
		laneMark[j] = -1
	}
	dryRounds := 0
	for {
		for j := 0; j < k; j++ {
			if pid := n.LaneParent(j); pid >= 0 {
				// Assigned: verify the parent actually delivers. A parent
				// can accept the subscription and then sit on it forever —
				// its pusher waits for blocks it does not have (another
				// joiner still syncing, or a lane its own parent starved).
				if cur := n.Latest(j); cur > laneMark[j] {
					laneMark[j], laneStalled[j] = cur, 0
					continue
				}
				laneStalled[j]++
				if laneStalled[j] < 2 {
					continue
				}
				// Two silent rounds: release the lane and rotate.
				n.unsubscribeLane(pid, j)
				laneTried[j][pid] = true
				laneStalled[j] = 0
			}
			pid, ok := n.pickLaneParent(j, laneTried[j])
			if !ok {
				// Every partner refused (or stalled) this lane recently;
				// forgive and rotate again next round.
				laneTried[j] = map[int32]bool{}
				continue
			}
			laneTried[j][pid] = true
			if laneAssigned[j] {
				st.LaneRetries++
			}
			laneAssigned[j] = true
			n.SubscribeTracked(pid, j, startSeq)
		}
		select {
		case <-time.After(joinSubscribeGrace):
		case <-n.done:
			return st, fmt.Errorf("netpeer: join aborted: node closed")
		}
		received := n.Stats().BlocksReceived
		if received > 0 {
			st.Joined = true
			st.TimeToFirstBlock = time.Since(start)
			st.Partners = len(n.Partners())
			return st, nil
		}
		if !time.Now().Before(deadline) {
			st.Partners = len(n.Partners())
			return st, fmt.Errorf("netpeer: join timed out waiting for first block")
		}
		// Starvation escape: every partner we have is dry (a crowd of
		// fellow joiners can partner each other into a blockless clique).
		// Widen the partner set instead of rotating forever.
		dryRounds++
		if dryRounds >= 2 && st.Attempts < joinMaxAttempts {
			if dialNext() {
				dryRounds = 0
			}
		}
	}
}

// unsubscribeLane releases lane j from peer: a teardown notice stops
// the parent's pusher and the local orphan makes the lane assignable
// again.
func (n *Node) unsubscribeLane(peer int32, j int) {
	if cn := n.connOf(peer); cn != nil {
		cn.send(protocol.Message{
			Type: protocol.TypeUnsubscribe, From: n.cfg.ID, To: peer, SubStream: int16(j),
		})
	}
	n.orphanLaneFrom(peer, j)
}

// waitForJoinStart polls the partners' buffer maps for an advertised
// live edge and returns the join position joinShift behind the best of
// them (0 if nothing was advertised within the wait — the subscription
// then starts at the stream head, which only a fresh overlay has).
func (n *Node) waitForJoinStart(wait time.Duration) int64 {
	deadline := time.Now().Add(wait)
	for {
		var edge int64
		n.mu.Lock()
		for _, cn := range n.conns {
			edge = max(edge, cn.bm.MaxLatest())
		}
		n.mu.Unlock()
		if edge > joinShift {
			return edge - joinShift
		}
		if !time.Now().Before(deadline) {
			return 0
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-n.done:
			return 0
		}
	}
}

// pickLaneParent chooses, among the partners not yet tried for lane j,
// the one advertising the most progress on it (a partner with no map
// counts as zero). Equally fresh partners are ordered by a hash of
// (self, partner, lane) — the way faults.Backoff derives its jitter —
// so the same partner set always yields the same parent, while ties do
// not pile every lane of every joiner onto the lowest ID (the source).
func (n *Node) pickLaneParent(j int, tried map[int32]bool) (int32, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var best int32
	var bestLatest int64
	var bestTie uint64
	found := false
	for _, pid := range n.partnerIDsLocked() {
		if tried[pid] {
			continue
		}
		var latest int64
		if bm := n.conns[pid].bm; bm.K() > j {
			latest = bm.Latest[j]
		}
		key := uint64(uint32(n.cfg.ID))<<32 | uint64(uint32(pid))
		tie := xrand.New(key ^ uint64(j+1)*0x9e3779b97f4a7c15).Uint64()
		if !found || latest > bestLatest || (latest == bestLatest && tie > bestTie) {
			best, bestLatest, bestTie, found = pid, latest, tie, true
		}
	}
	return best, found
}
