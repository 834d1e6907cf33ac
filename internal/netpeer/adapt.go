package netpeer

import (
	"slices"
	"time"

	"coolstream/internal/xrand"
)

// AdaptConfig parameterises the networked adaptation loop — the §IV-B
// logic running over real sockets.
type AdaptConfig struct {
	// Ts is the own-deviation threshold (Inequality (1)), in blocks.
	Ts int64
	// Tp is the partner-lag threshold (Inequality (2)), in blocks.
	Tp int64
	// Ta is the adaptation cool-down.
	Ta time.Duration
	// Check is how often the monitor evaluates the inequalities.
	Check time.Duration
	// BMStale expires partner buffer maps: an entry older than this is
	// ignored by the planner — a hung partner's frozen map can neither
	// set the best-progress reference nor qualify its owner as a
	// replacement parent (0 selects 4×BMPeriod, floor 1s).
	BMStale time.Duration
	// Seed drives the random choice among eligible parents.
	Seed uint64
}

// EnableAdaptation starts the peer-adaptation monitor: every Check
// interval it evaluates Inequalities (1) and (2) against the latest
// partner buffer maps and, at most once per Ta, unsubscribes the worst
// lagging sub-stream from its parent and re-subscribes it to a random
// eligible partner. Call after the initial subscriptions are placed
// (by Join, or by hand with SubscribeTracked).
func (n *Node) EnableAdaptation(cfg AdaptConfig) {
	if cfg.Check <= 0 {
		cfg.Check = 500 * time.Millisecond
	}
	if cfg.BMStale <= 0 {
		cfg.BMStale = max(4*n.cfg.BMPeriod, time.Second)
	}
	rng := xrand.New(cfg.Seed ^ uint64(n.cfg.ID)<<32)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(cfg.Check)
		defer ticker.Stop()
		var lastSwitch time.Time
		for {
			// Select the close signal alongside the ticker: Close must
			// not block for up to a full Check interval waiting for the
			// next tick to observe n.closed.
			select {
			case <-ticker.C:
			case <-n.done:
				return
			}
			n.mu.Lock()
			if n.closed {
				n.mu.Unlock()
				return
			}
			if !n.started || time.Since(lastSwitch) < cfg.Ta {
				n.mu.Unlock()
				continue
			}
			plan, ok := n.planSwitchLocked(cfg, rng)
			n.mu.Unlock()
			if !ok {
				continue
			}
			// Perform the switch outside the lock: network sends block.
			if plan.oldParent >= 0 {
				n.unsubscribeLane(plan.oldParent, plan.lane)
			}
			if err := n.SubscribeTracked(plan.newParent, plan.lane, plan.from); err == nil {
				lastSwitch = time.Now()
			}
		}
	}()
}

// switchPlan is one adaptation decision.
type switchPlan struct {
	lane      int
	oldParent int32
	newParent int32
	from      int64
}

// planSwitchLocked evaluates the inequalities under n.mu and picks the
// worst violated lane plus an eligible replacement parent. Partner
// buffer maps older than cfg.BMStale are expired: a hung partner must
// neither set the best-progress reference nor qualify as a replacement.
func (n *Node) planSwitchLocked(cfg AdaptConfig, rng *xrand.RNG) (switchPlan, bool) {
	k := n.cfg.Layout.K
	now := time.Now()
	// live reports whether a partner's buffer map exists and is fresh; a
	// map that exists is k lanes wide (the read loop drops any other).
	live := func(cn *conn) bool {
		return cn != nil && !cn.bmAt.IsZero() && (cfg.BMStale <= 0 || now.Sub(cn.bmAt) <= cfg.BMStale)
	}
	// Own per-lane progress and the maximum.
	own := make([]int64, k)
	var maxOwn int64
	for j := 0; j < k; j++ {
		own[j] = n.sb.Latest(j)
		if own[j] > maxOwn {
			maxOwn = own[j]
		}
	}
	// Best advertised progress across partners with live buffer maps.
	var best int64
	for _, cn := range n.conns {
		if !live(cn) {
			continue
		}
		if m := cn.bm.MaxLatest(); m > best {
			best = m
		}
	}
	if best == 0 {
		return switchPlan{}, false
	}
	worst, worstLag := -1, int64(-1)
	for j := 0; j < k; j++ {
		lag1 := maxOwn - own[j]
		violated := lag1 >= cfg.Ts
		parent := n.laneParent[j]
		if parent < 0 {
			violated = true // nobody serves this lane: always re-subscribe
		} else if cn := n.conns[parent]; !live(cn) {
			// The parent's map expired (or never arrived): the lane
			// is fed by a partner we cannot reason about — treat as
			// violated rather than let a frozen map protect it.
			violated = true
		} else if best-cn.bm.Latest[j] >= cfg.Tp {
			violated = true // Inequality (2)
		}
		if violated && lag1 > worstLag {
			worst, worstLag = j, lag1
		}
	}
	if worst < 0 {
		return switchPlan{}, false
	}
	// Eligible replacements: partners ahead of us on the lane, within
	// Tp of the best advertiser, with a live buffer map.
	var cands []int32
	for pid, cn := range n.conns {
		if !live(cn) || pid == n.laneParent[worst] {
			continue
		}
		if cn.bm.Latest[worst] <= own[worst] {
			continue
		}
		if best-cn.bm.Latest[worst] >= cfg.Tp {
			continue
		}
		cands = append(cands, pid)
	}
	if len(cands) == 0 {
		return switchPlan{}, false
	}
	slices.Sort(cands) // deterministic order for the random draw
	choice := cands[rng.Intn(len(cands))]
	return switchPlan{
		lane:      worst,
		oldParent: n.laneParent[worst],
		newParent: choice,
		from:      own[worst] + 1,
	}, true
}

func (n *Node) connOf(peer int32) *conn {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.conns[peer]
}
