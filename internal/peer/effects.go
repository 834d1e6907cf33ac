package peer

import (
	"time"

	"coolstream/internal/gossip"
	"coolstream/internal/logsys"
	"coolstream/internal/profiling"
	"coolstream/internal/sim"
)

// The deferred-effect engine is the control phase: control visits run
// in parallel, one goroutine per shard (a one-shard world is the same
// engine with nshards == 1), and must not mutate any node they do not
// own. Every cross-node mutation a visit decides on — partnership
// teardown after a detected crash, a parent switch, a gossip exchange,
// an engine event, a bootstrap update, a stall abandon — is recorded
// as an *effect* in the visiting shard's queues instead of being
// applied in place. At the tick barrier the queues are drained in the
// canonical (source node ID, emission seq) order: single-target
// effects in the parallel target/source passes, the residue
// sequentially.
//
// Determinism argument, in two halves:
//
//   - The effect multiset is shard-independent. A visit reads only
//     frozen global state (the pre-control fluid state, partner BMs,
//     membership as of the last sequential phase) plus its own node,
//     and every mutation that could be observed mid-phase is itself
//     deferred — so no visit can observe another visit's work, and
//     each node's visit computes the same effects whatever shard runs
//     it and whenever it runs.
//   - The drain order is a pure function of the effects. Each shard
//     visits its due nodes in ascending ID order and stamps a
//     monotone per-shard seq, so each outbox is already sorted by
//     (src, seq); a node lives on exactly one shard, so the k-way
//     head merge on (src, seq) yields one global order independent of
//     the shard partition.
//
// Effects validate at apply time against the *committed* state: the
// node a visit chose as parent may have departed in an earlier-drained
// effect, or the edge may have become cyclic. A rejected attach leaves
// the sub-stream detached and touches the node so the next tick
// retries — the same outcome a visit reaches when no eligible
// candidate exists.
//
// Sequential phases that decide the same mutations outside a visit —
// the fault step's partner kill, the bootstrap reply's recruiting —
// build the same effects and apply them on the spot (applyEffect,
// commitEventEffects), so each mutation has exactly one implementation.
// See DESIGN.md §11 and §13.

type effectKind uint8

const (
	// effPartnerCrash: the visit detected a departed partner through a
	// failed BM exchange and dropped the partnership locally; the
	// deferred half detaches the visitor's sub-streams from the corpse
	// and cleans the corpse's child registry. a = corpse ID.
	effPartnerCrash effectKind = iota
	// effSetParent commits a subscription change decided at visit
	// time: a = sub-stream, b = new parent (NoParent detaches).
	effSetParent
	// effStartSub commits the §IV-A initial-subscription position:
	// f = start position (all H values move there); a = 1 marks the
	// Joining→Subscribing transition.
	effStartSub
	// effGossip performs the deferred gossip exchange with partner a
	// (the partner's mCache RNG draws at apply time, in canonical
	// order).
	effGossip
	// effSchedule emits a deferred engine event: a = 1 bootstrap
	// re-contact, a = 2 partnership handshake towards b after delay t
	// with reachability draw f.
	effSchedule
	// effBootUpdate refreshes the bootstrap's partner-count entry for
	// the source (a = in+out).
	effBootUpdate
	// effAbandon executes a stall-abandon departure decided at visit
	// time.
	effAbandon
	// effKill severs the partnership (src, a) — the world-sourced
	// partner kill of the fault step, applied synchronously through the
	// same apply path.
	effKill
	// effCrashDetach is the visitor-side half of a split partner
	// crash: detach the sub-streams in bitmask b (baked at emit time;
	// see the equivalence note on emitCrash) from the corpse. Target =
	// src, so the visitor's own shard commits it in the parallel
	// target pass.
	effCrashDetach
	// effCrashChildren is the corpse-side half: remove src from the
	// corpse's child registries for bitmask b and attempt the corpse
	// reclaim. a = corpse ID; target = corpse, so the corpse's shard
	// commits it — concurrent detectors of the same crash serialize on
	// that one shard in canonical order.
	effCrashChildren
)

// effect is one deferred cross-node mutation. src and seq are the
// canonical drain order; the operand fields are kind-specific.
type effect struct {
	kind effectKind
	src  int32
	seq  int32
	a, b int32
	t    sim.Time
	f    float64
}

// vctx is the context of one control visit: the visiting shard's
// effect queues plus the visited node's own pending parent changes.
// Each shard owns one, reused across its visits (and, between ticks,
// by event-time recruiting on its nodes; see commitEventEffects).
type vctx struct {
	w  *World
	sh *worldShard
	// node is the node being visited (the src of emitted effects).
	node *Node
	// pendPar/pendSet overlay the visited node's own deferred parent
	// changes so later steps of the same visit observe them; remote
	// nodes never see the overlay.
	pendPar []int
	pendSet []bool
	pendAny bool
	// abandoned marks that the visit decided a stall-abandon; the
	// departure applies at the barrier, but the visit loop must not
	// re-arm the node.
	abandoned bool
}

// beginVisit resets the per-visit state.
func (vc *vctx) beginVisit(n *Node) {
	vc.node = n
	vc.abandoned = false
	if vc.pendAny {
		for j := range vc.pendSet {
			vc.pendSet[j] = false
		}
		vc.pendAny = false
	}
}

// parent returns sub-stream j's parent as the visit observes it: the
// committed value, shadowed by the visit's own pending changes.
func (vc *vctx) parent(n *Node, j int) int {
	if vc.pendSet[j] {
		return vc.pendPar[j]
	}
	return n.Subs[j].Parent
}

// emit appends an effect from the visited node to the shard's residue
// outbox — the sequential barrier pass. Residue effects and routed
// effects share one per-shard seq counter, so the union of all queues
// a shard emits is totally ordered by (src, seq): the global canonical
// order is well defined across both drain passes and the residue.
func (vc *vctx) emit(k effectKind, a, b int32, t sim.Time, f float64) {
	sh := vc.sh
	sh.outbox = append(sh.outbox, effect{
		kind: k, src: int32(vc.node.ID), seq: sh.effSeq, a: a, b: b, t: t, f: f,
	})
	sh.effSeq++
}

// emitPar routes an effect to the shard owning its *target* node: it
// lands in outPar[target shard], and at the barrier that shard — and
// only that shard — applies it, in canonical (src, seq) order
// restricted to its own targets. Single-target effects (crash halves,
// start-sub, gossip) commit this way in parallel; everything
// multi-target stays in the sequential residue via emit.
func (vc *vctx) emitPar(target int, k effectKind, a, b int32, f float64) {
	sh := vc.sh
	ti := vc.w.nodes[target].shard
	sh.outPar[ti] = append(sh.outPar[ti], effect{
		kind: k, src: int32(vc.node.ID), seq: sh.effSeq, a: a, b: b, f: f,
	})
	sh.effSeq++
}

// emitCrash emits the two halves of a partner-crash teardown. The
// sub-stream set served by the corpse is baked into a bitmask at emit
// time rather than re-scanned at apply time; the two are equivalent
// because between emit and apply the only earlier-canonical effects
// that touch the visitor's parents are its own — refreshBMs runs
// first in the visit, so those are crash detaches with disjoint masks
// (the vc overlay already excludes previously detached sub-streams),
// and no departure can intervene before the barrier. Layouts with
// more than 31 sub-streams fall back to the scan-at-apply residue
// effect.
func (vc *vctx) emitCrash(n *Node, corpse int) {
	var mask int32
	for j := range n.Subs {
		if vc.parent(n, j) == corpse {
			if j < 31 {
				mask |= 1 << uint(j)
			}
			vc.pendPar[j] = NoParent
			vc.pendSet[j] = true
			vc.pendAny = true
		}
	}
	if len(n.Subs) > 31 {
		vc.emit(effPartnerCrash, int32(corpse), 0, 0, 0)
		return
	}
	vc.emitPar(n.ID, effCrashDetach, int32(corpse), mask, 0)
	// Emitted even for an empty mask: the last detector must still
	// trigger the corpse reclaim.
	vc.emitPar(corpse, effCrashChildren, int32(corpse), mask, 0)
}

// setParent is the choke point for subscription changes decided inside
// a control visit (subscribe's attach, adapt's detach): the change is
// recorded in the visit overlay and commits at the barrier through
// applySetParent.
func (vc *vctx) setParent(n *Node, j, parent int) {
	vc.pendPar[j] = parent
	vc.pendSet[j] = true
	vc.pendAny = true
	vc.emit(effSetParent, int32(j), int32(parent), 0, 0)
}

// parentStats is Node.parentStats through the visit overlay.
func (vc *vctx) parentStats(n *Node) (reachable, total, natLinks int) {
	nodes := vc.w.nodes
	for j := range n.Subs {
		pid := vc.parent(n, j)
		if pid == NoParent {
			continue
		}
		total++
		p := nodes[pid]
		if p.EP.Class.Reachable() {
			reachable++
		} else if !n.EP.Class.Reachable() {
			natLinks++
		}
	}
	return
}

// vlog emits a control-phase record into the visiting shard's record
// lane. The lanes are flushed at the barrier in ascending peer-ID
// order, so the record stream is independent of the shard partition.
func (w *World) vlog(vc *vctx, n *Node, rec logsys.Record) {
	if n.IsServer() {
		return
	}
	w.fill(n, &rec)
	vc.sh.recBuf = append(vc.sh.recBuf, rec)
}

// drainEffects applies every shard outbox in canonical (src, seq)
// order via a k-way head merge (each outbox is already sorted; a node
// lives on exactly one shard, so src never ties across shards).
func (w *World) drainEffects(now sim.Time) {
	cur := w.effCur[:len(w.shards)]
	for i := range cur {
		cur[i] = 0
	}
	for {
		best := -1
		var bk effect
		for i, sh := range w.shards {
			if cur[i] < len(sh.outbox) {
				if e := sh.outbox[cur[i]]; best < 0 || e.src < bk.src ||
					(e.src == bk.src && e.seq < bk.seq) {
					best, bk = i, e
				}
			}
		}
		if best < 0 {
			break
		}
		cur[best]++
		w.applyEffect(bk, now)
	}
	for _, sh := range w.shards {
		sh.effTotal += int64(len(sh.outbox))
		sh.outbox = sh.outbox[:0]
		for i := range sh.outPar {
			sh.effTotal += int64(len(sh.outPar[i]))
			sh.outPar[i] = sh.outPar[i][:0]
		}
		for i := range sh.gossipOut {
			sh.gossipOut[i] = sh.gossipOut[i][:0]
		}
		sh.effSeq = 0
	}
}

// gossipSampleN is the §III-C partner-sample size of one gossip
// exchange.
const gossipSampleN = 4

// gossipReply carries the sampled entries of one deferred gossip
// exchange from the partner's shard (which owns the partner's mCache
// and its RNG stream) back to the source's shard, which inserts them
// into the source's mCache in the second drain pass. MCache.Sample
// appends straight into ents — the reply owns its entries, the cache
// keeps no scratch.
type gossipReply struct {
	src, seq int32
	n        int32
	ents     [gossipSampleN]gossip.Entry
}

// growDrainScratch sizes the per-shard routing queues to the current
// shard count. Called at the top of controlSharded so late SetShards
// calls are covered.
func (w *World) growDrainScratch() {
	ns := len(w.shards)
	for _, sh := range w.shards {
		for len(sh.outPar) < ns {
			sh.outPar = append(sh.outPar, nil)
		}
		for len(sh.gossipOut) < ns {
			sh.gossipOut = append(sh.gossipOut, nil)
		}
		for len(sh.mergeCur) < ns {
			sh.mergeCur = append(sh.mergeCur, 0)
		}
	}
}

// drainTargetRange is the first parallel drain pass: each target shard
// k-way-merges the routed queues outPar[self] of every emitting shard
// by (src, seq) and applies them. Every effect here mutates only nodes
// owned by the applying shard (plus the shared topo epochs, which are
// atomic), so the passes over disjoint target shards commute; within
// one target the apply order is the global canonical order restricted
// to that target, which is what makes the result independent of the
// shard partition.
func (w *World) drainTargetRange(lo, hi int) {
	if w.labelPhases {
		profiling.WithLabel("drain", func() { w.drainTargets(lo, hi) })
		return
	}
	w.drainTargets(lo, hi)
}

func (w *World) drainTargets(lo, hi int) {
	now := w.tickNow
	for ti := lo; ti < hi; ti++ {
		t := w.shards[ti]
		cur := t.mergeCur[:len(w.shards)]
		for i := range cur {
			cur[i] = 0
		}
		for {
			best := -1
			var bk effect
			for i, sh := range w.shards {
				q := sh.outPar[ti]
				if cur[i] < len(q) {
					if e := q[cur[i]]; best < 0 || e.src < bk.src ||
						(e.src == bk.src && e.seq < bk.seq) {
						best, bk = i, e
					}
				}
			}
			if best < 0 {
				break
			}
			cur[best]++
			w.applyTargetEffect(t, bk, now)
		}
	}
}

// drainSourceRange is the second parallel drain pass: each source
// shard k-way-merges the gossip replies addressed to it (filled by the
// target pass) by (src, seq) and inserts the sampled entries into its
// own nodes' mCaches. Each reply queue is produced in target-pass
// apply order — canonical order restricted to that target shard — so
// restricting further to one source shard keeps it (src, seq)-sorted
// and the merge again lands on the canonical restriction.
func (w *World) drainSourceRange(lo, hi int) {
	if w.labelPhases {
		profiling.WithLabel("drain", func() { w.drainSources(lo, hi) })
		return
	}
	w.drainSources(lo, hi)
}

func (w *World) drainSources(lo, hi int) {
	now := w.tickNow
	for si := lo; si < hi; si++ {
		s := w.shards[si]
		cur := s.mergeCur[:len(w.shards)]
		for i := range cur {
			cur[i] = 0
		}
		for {
			best := -1
			var bk *gossipReply
			for i, sh := range w.shards {
				q := sh.gossipOut[si]
				if cur[i] < len(q) {
					if r := &q[cur[i]]; bk == nil || r.src < bk.src ||
						(r.src == bk.src && r.seq < bk.seq) {
						best, bk = i, r
					}
				}
			}
			if best < 0 {
				break
			}
			cur[best]++
			n := w.nodes[bk.src]
			if n.MCache != nil {
				for i := int32(0); i < bk.n; i++ {
					n.MCache.Insert(bk.ents[i], now)
				}
			}
		}
	}
}

// applyTargetEffect commits one routed effect on its target's shard.
// Unlike the residue path there are no departed-state re-checks: no
// departure can happen between the visit phase and the drain (the
// fault step precedes control, stall abandons commit in the residue
// after this pass, and engine-driven departs fire outside the tick),
// so the liveness the emitting visit saw still holds — dropping the
// checks here is deterministic, not an optimization gamble.
func (w *World) applyTargetEffect(t *worldShard, e effect, now sim.Time) {
	if w.drainLogOn {
		t.drainLog = append(t.drainLog, [2]int32{e.src, e.seq})
	}
	switch e.kind {
	case effCrashDetach:
		n := w.nodes[e.src]
		for j := 0; e.b>>uint(j) != 0; j++ {
			if e.b&(1<<uint(j)) != 0 {
				n.Subs[j].Parent = NoParent
				n.Subs[j].RateBps = 0
			}
		}
	case effCrashChildren:
		corpse := w.nodes[e.a]
		for j := 0; e.b>>uint(j) != 0; j++ {
			if e.b&(1<<uint(j)) != 0 {
				corpse.removeChild(j, int(e.src))
			}
		}
		w.reclaimCorpseChildren(corpse)
	case effStartSub:
		n := w.nodes[e.src]
		if n.State != StateJoining {
			return
		}
		n.startPos = e.f
		for j := range n.Subs {
			n.Subs[j].H = e.f
		}
		if e.a != 0 {
			n.State = StateSubscribing
			n.StartSubAt = now
		}
	case effGossip:
		src := w.nodes[e.src]
		partner := w.nodes[e.a]
		if src.MCache == nil || partner.MCache == nil {
			return
		}
		r := gossipReply{src: e.src, seq: e.seq}
		r.n = int32(len(partner.MCache.Sample(r.ents[:0], gossipSampleN, int(e.src), nil)))
		si := int(src.shard)
		t.gossipOut[si] = append(t.gossipOut[si], r)
		partner.MCache.Insert(w.bootEntry(src), now)
	}
}

// flushShardRecords merges the per-shard record lanes into the sink in
// ascending peer-ID order. Each lane is already in visit order (one
// node's records contiguous, node IDs ascending within a shard), so a
// head merge on peer ID that copies each node's run whole yields one
// stream in peer-ID order, whatever the shard partition.
func (w *World) flushShardRecords() {
	cur := w.effCur[:len(w.shards)]
	for i := range cur {
		cur[i] = 0
	}
	for {
		best, bestPeer := -1, 0
		for i, sh := range w.shards {
			if cur[i] < len(sh.recBuf) {
				if p := sh.recBuf[cur[i]].Peer; best < 0 || p < bestPeer {
					best, bestPeer = i, p
				}
			}
		}
		if best < 0 {
			break
		}
		sh := w.shards[best]
		for cur[best] < len(sh.recBuf) && sh.recBuf[cur[best]].Peer == bestPeer {
			w.Sink.Log(sh.recBuf[cur[best]])
			cur[best]++
		}
	}
	for _, sh := range w.shards {
		sh.recBuf = sh.recBuf[:0]
	}
}

// applyEffect commits one residue effect against the committed world
// state (routed single-target kinds commit in applyTargetEffect).
// Every case re-checks the liveness preconditions the emitting visit
// could only establish against frozen state: an earlier-drained effect
// may have departed either end.
func (w *World) applyEffect(e effect, now sim.Time) {
	switch e.kind {
	case effPartnerCrash:
		n := w.nodes[e.src]
		if n.State == StateDeparted {
			return
		}
		corpse := w.nodes[e.a]
		for j := range n.Subs {
			if n.Subs[j].Parent == int(e.a) {
				corpse.removeChild(j, n.ID)
				n.Subs[j].Parent = NoParent
				n.Subs[j].RateBps = 0
			}
		}
		w.reclaimCorpseChildren(corpse)
	case effSetParent:
		w.applySetParent(w.nodes[e.src], int(e.a), int(e.b))
	case effSchedule:
		switch e.a {
		case 1:
			w.Engine.AfterCall(e.t, w.bootstrapFn, sim.EvPayload{A: int(e.src)})
		case 2:
			w.Engine.AfterCall(e.t, w.partnershipFn,
				sim.EvPayload{A: int(e.src), B: int(e.b), F: e.f})
		}
	case effBootUpdate:
		w.Boot.UpdatePartnerCount(int(e.src), int(e.a))
	case effAbandon:
		n := w.nodes[e.src]
		if n.State == StateReady {
			w.abandonAndRejoin(n)
		}
	case effKill:
		// Applied synchronously from the sequential fault phase, never
		// queued, so no liveness re-check: the kill hits whatever the
		// draw selected — including a silently-crashed partner still in
		// the victim's partner set, exactly as a broken TCP link would.
		w.severPartnership(w.nodes[e.src], w.nodes[e.a])
	}
}

// applySetParent commits a deferred subscription change, re-validating
// against the committed forest what the visit judged against frozen
// state: the chosen parent may since have departed, or an
// earlier-drained switch may make the edge cyclic. A rejected attach
// leaves the sub-stream detached — the same outcome a visit reaches
// when no eligible candidate exists — and touches the node so the next
// tick's visit retries.
func (w *World) applySetParent(n *Node, j, parent int) {
	if n.State == StateDeparted {
		return
	}
	old := n.Subs[j].Parent
	if old == parent {
		return
	}
	if old != NoParent {
		w.nodes[old].removeChild(j, n.ID)
		w.reclaimCorpseChildren(w.nodes[old])
	}
	n.Subs[j].Parent = NoParent
	n.Subs[j].RateBps = 0
	if parent == NoParent {
		return
	}
	p := w.nodes[parent]
	if p.State == StateDeparted || w.wouldCycle(n, j, parent) {
		w.touchNode(n.ID)
		return
	}
	n.Subs[j].Parent = parent
	p.addChild(j, n.ID)
}

// controlSharded is the control phase. Four stages:
//
//  1. sequential: route the playback phase's Inequality (1) flag
//     lists to their owner shards and drain every shard's wheel into
//     a sorted, deduplicated due list;
//  2. parallel: each shard visits its due nodes with its own visit
//     context — all cross-node mutations become effects;
//  3. parallel barrier: the target pass commits each shard's routed
//     inbox (crash halves, start-subs, gossip samples) and the source
//     pass commits the gossip replies — metered as Drain;
//  4. sequential barrier: flush the record lanes, drain the residue
//     outboxes in canonical (src, seq) order, fold the counters —
//     metered as Merge, the tick's true sequential tail.
func (w *World) controlSharded(now sim.Time) {
	w.growDrainScratch()
	if w.nshards > 1 {
		// Shard-local playback already partitioned the flag lists by
		// owner shard.
		for si := 0; si < w.nshards && si < len(w.advFlagShards); si++ {
			sh := w.shards[si]
			sh.wheelBuf = append(sh.wheelBuf, w.advFlagShards[si]...)
		}
	} else {
		// Range-split playback indexes the lists by worker slot; one
		// shard owns every node.
		sh := w.shards[0]
		for _, flagged := range w.advFlagShards {
			sh.wheelBuf = append(sh.wheelBuf, flagged...)
		}
	}
	for _, sh := range w.shards {
		buf := sh.wheel.DrainTo(now, sh.wheelBuf)
		sortInt32(buf)
		due := sh.dueIDs[:0]
		prev := int32(-1)
		for _, id := range buf {
			if id != prev {
				due = append(due, id)
				prev = id
			}
		}
		sh.dueIDs = due
		sh.wheelBuf = buf[:0]
	}
	w.tickNow = now
	sim.ParallelGrain(len(w.shards), 1, w.shardVisitFn)
	if w.testBarrierHook != nil {
		w.testBarrierHook()
	}
	var t0 time.Time
	if w.phaseClock {
		t0 = time.Now()
	}
	sim.ParallelGrain(len(w.shards), 1, w.drainTargetFn)
	sim.ParallelGrain(len(w.shards), 1, w.drainSourceFn)
	if w.phaseClock {
		w.Phases.Drain += time.Since(t0).Nanoseconds()
		t0 = time.Now()
	}
	if w.labelPhases {
		profiling.WithLabel("merge", func() { w.mergeBarrier(now) })
	} else {
		w.mergeBarrier(now)
	}
	if w.phaseClock {
		w.Phases.Merge += time.Since(t0).Nanoseconds()
	}
}

// mergeBarrier is the sequential tail of the tick: record-lane flush,
// residue effect drain, counter folds.
func (w *World) mergeBarrier(now sim.Time) {
	w.flushShardRecords()
	w.drainEffects(now)
	for _, sh := range w.shards {
		w.foldCounters(sh)
	}
}

// foldCounters moves one shard's per-tick counters into the world
// totals (ControlVisits, ReadySessions, Adaptations, NAT refusals), so
// parallel visits never touch a shared counter and the totals only
// move in sequential phases.
func (w *World) foldCounters(sh *worldShard) {
	w.ControlVisits += sh.visits
	sh.visitsTotal += sh.visits
	sh.visits = 0
	w.ReadySessions += sh.ready
	sh.ready = 0
	w.Adaptations += sh.adapts
	sh.adapts = 0
	if w.Faults != nil {
		w.Faults.Stats.NATRefusals += sh.natRefusals
	}
	sh.natRefusals = 0
}

// commitEventEffects applies, on the spot, what an event-time decision
// on one of sh's nodes emitted through the shard's visit context (the
// bootstrap reply's recruiting). Events fire between ticks, when every
// queue is empty, so the outbox holds exactly that decision's effects
// in emission order.
func (w *World) commitEventEffects(sh *worldShard) {
	now := w.Engine.Now()
	for _, e := range sh.outbox {
		w.applyEffect(e, now)
	}
	sh.outbox = sh.outbox[:0]
	sh.effSeq = 0
	w.foldCounters(sh)
}

// shardVisitRange is the parallel stage of controlSharded: shards
// [lo, hi) visit their due nodes. Bound once as shardVisitFn so the
// steady-state tick allocates no closures.
func (w *World) shardVisitRange(lo, hi int) {
	if w.labelPhases {
		profiling.WithLabel("control", func() { w.shardVisits(lo, hi) })
		return
	}
	w.shardVisits(lo, hi)
}

func (w *World) shardVisits(lo, hi int) {
	now := w.tickNow
	for si := lo; si < hi; si++ {
		sh := w.shards[si]
		var t0 time.Time
		if w.controlClock {
			t0 = time.Now()
		}
		vc := &sh.vc
		for _, id32 := range sh.dueIDs {
			n := w.nodes[id32]
			n.wheelAt = 0
			if n.State == StateDeparted || n.IsServer() {
				continue
			}
			w.controlVisit(vc, n, now)
			if !vc.abandoned {
				w.wheelSchedule(sh, n, w.nextControlDue(vc, n, now))
			}
		}
		if w.controlClock {
			sh.controlNs += time.Since(t0).Nanoseconds()
		}
	}
}
