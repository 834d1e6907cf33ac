package peer

import (
	"slices"

	"coolstream/internal/sim"
)

// This file implements the due-driven control plane: instead of
// sweeping every active node per tick, the world keeps a timing wheel
// of per-node control due times and visits only the nodes whose next
// possible control action has arrived.
//
// Correctness rests on a single invariant, the *conservative-visit*
// contract: every control sub-function is a provable no-op (no RNG
// draw, no observable mutation) when invoked before its own gate, so
// visiting a node early is always safe — only a missed visit can
// change behaviour. The due computation below therefore only ever
// under-estimates the next action time, never over-estimates it:
//
//   - BM refresh, gossip, status reports and recruiting are exact
//     timers owned by the node (bmDue, lastGossipAt, lastReportAt,
//     recruitingDue).
//   - The §IV-B Inequality (1) depends on the continuously evolving
//     fluid H state, which only the advance phase moves; crossings are
//     detected in the playback phase of the same tick (per-shard flag
//     lists merged into the due set, see playbackIDs) instead of
//     being predicted. Inequality (2) and the parent-link condition
//     are frozen between BM refreshes; refreshBMs reports the refresh
//     outcomes that can change their verdicts (evalHint) and
//     adaptEvalBound covers the cool-down expiry. The stall-abandon
//     check gets a provable lower bound on its first possible draw
//     (stallDue).
//   - State changed *from outside* a node's own visit (partnership
//     established or severed, parent departed) is signalled through
//     touchNode, which forces a visit on the next drained tick — the
//     first tick a visit could observe the change.
//
// A run driven by the wheel is therefore bit-identical (RNG streams,
// log records, digest) to one that visits every active node every
// tick; TestWheelMatchesFullSweep holds the wheel to that oracle.

// farFuture is the "no finite deadline" sentinel for due components.
const farFuture = sim.Time(1) << 62

// touchNode signals that a node's control-relevant state was changed
// from outside its own control visit, scheduling a visit on its shard
// wheel at the current time. Touches come only from sequential phases,
// never from inside a visit, so one rule covers them all: the visit
// happens at the next wheel drain — this tick's control phase when the
// touch precedes it (events, the fault step), the next tick's when it
// comes from the barrier drain. Safe to call for servers and departed
// nodes (no-op).
func (w *World) touchNode(id int) {
	n := w.nodes[id]
	if n.IsServer() || n.State == StateDeparted {
		return
	}
	// Membership around the node changed: force a §IV-B evaluation at
	// the next visit (conservative; evaluation without violation draws
	// no randomness and changes nothing).
	n.adaptDue = 0
	w.wheelSchedule(w.shards[n.shard], n, w.Engine.Now())
}

// wheelSchedule enqueues the node on its shard's wheel at the given
// due time, suppressing the enqueue when an earlier (still pending)
// entry already covers it. Duplicate entries are harmless — the drain
// deduplicates per tick — so the wheelAt bookkeeping is best-effort,
// not exact.
func (w *World) wheelSchedule(sh *worldShard, n *Node, at sim.Time) {
	if at >= farFuture {
		return
	}
	if n.wheelAt != 0 && n.wheelAt <= at {
		return
	}
	sh.wheel.Schedule(n.ID, at)
	n.wheelAt = at
}

// nextControlDue computes the node's next control deadline as the
// minimum over every control component's own due time. Called at the
// end of a visit, when every component that was due has just acted and
// pushed its own timer forward. Reads parents through the visit
// context so a detach decided this visit (applied only at the barrier)
// still registers as a stalled sub-stream — missing it would skip the
// every-tick re-subscribe polling and stall the node forever.
func (w *World) nextControlDue(vc *vctx, n *Node, now sim.Time) sim.Time {
	tick := w.Engine.TickPeriod()
	next := now + tick
	if n.State == StateJoining || n.State == StateSubscribing {
		// Startup phases poll every tick: the initial subscription and
		// the media-ready transition both depend on per-tick fluid state.
		return next
	}
	if n.bmDue <= now {
		return next // a partner-BM scan is already due
	}
	due := n.bmDue // refreshBMs keeps this ≤ lastScan + BMPeriod
	if len(n.partnerIDs) > 0 {
		if g := n.lastGossipAt + w.P.GossipPeriod; g < due {
			due = g
		}
	}
	if r := n.lastReportAt + w.P.ReportPeriod; r < due {
		due = r
	}
	if len(n.Partners) < w.P.MinPartners && n.recruitingDue < due {
		due = n.recruitingDue
	}
	for j := range n.Subs {
		if vc.parent(n, j) == NoParent {
			return next // stalled sub-stream: re-subscribe retries every tick
		}
	}
	if n.adaptDue < due {
		due = n.adaptDue
	}
	if s := w.stallDue(n, now); s < due {
		due = s
	}
	if due <= now {
		return next
	}
	return due
}

// adaptEvalBound returns the next time the §IV-B adaptation check must
// be re-evaluated on a timer, given that a visit just considered it at
// now. Outside the cool-down no timer is needed — every way an
// adaptation input can newly violate an inequality carries its own
// signal: Inequality (1) crossings of the fluid H state are flagged by
// the playback phase of the tick they happen (see playbackIDs),
// Inequality (2) and the parent-link condition are frozen between BM
// refreshes and refreshBMs reports the refresh outcomes that can flip
// them (evalHint), and membership changes from outside the visit zero
// adaptDue through touchNode. During the cool-down adapt is a provable
// no-op, but a violation signalled meanwhile must still be acted on
// when the cool-down expires — hence the expiry deadline.
func (w *World) adaptEvalBound(n *Node, now sim.Time) sim.Time {
	if now-n.lastAdaptAt < w.P.Ta {
		// Cool-down: adapt is a provable no-op until it expires (an
		// adaptation that just fired lands here too). Re-evaluating at
		// expiry is conservative — if the signalled violation cleared
		// itself, the evaluation finds nothing, draws no randomness and
		// changes nothing.
		return n.lastAdaptAt + w.P.Ta
	}
	return farFuture
}

// stallDue returns a conservative lower bound on the next time the
// frustrated-user stall check can draw its abandon hazard. The check
// requires a quarter report interval of evidence and a continuity
// index below the threshold; between visits missed and total blocks
// both grow at most (and total exactly) K·β per second, so the index
// can first cross below StallContinuity at the δ* solving
// (missed + Kβδ)/(total + Kβδ) = 1 − SC.
func (w *World) stallDue(n *Node, now sim.Time) sim.Time {
	if n.State != StateReady || w.StallAbandonProb <= 0 || w.StallContinuity <= 0 {
		return farFuture
	}
	gate := n.lastReportAt + w.P.ReportPeriod/4
	kbeta := float64(w.P.Layout.K) * w.P.Layout.SubBlocksPerSecond()
	if kbeta <= 0 {
		return farFuture
	}
	cross := now
	if num := (1-w.StallContinuity)*n.hot.totalBlocks - n.hot.missedBlocks; num > 0 {
		cross = now + sim.Time(num/(w.StallContinuity*kbeta)*1000)
	}
	if gate > cross {
		return gate
	}
	return cross
}

// sortInt32 sorts ascending in place (insertion sort below a small
// threshold, allocation-free pdq via slices.Sort above it — the
// drained set is usually tiny relative to the population).
func sortInt32(a []int32) {
	if len(a) < 32 {
		for i := 1; i < len(a); i++ {
			v := a[i]
			j := i - 1
			for j >= 0 && a[j] > v {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
		return
	}
	slices.Sort(a)
}
