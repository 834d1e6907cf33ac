package peer

import (
	"runtime"
	"time"

	"coolstream/internal/logsys"
	"coolstream/internal/netmodel"
	"coolstream/internal/profiling"
	"coolstream/internal/sim"
)

// tick advances the fluid data plane and runs the control plane for
// the elapsed interval [prev, now]. Phase structure:
//
//  1. allocation  — parents divide upload capacity (parallel, per node)
//  2. advance     — H values move along each sub-stream forest
//     (parallel, per sub-stream, cached topological order)
//  3. playback    — deadlines, continuity integration, media-ready
//     (parallel, per node)
//  4. accounting  — byte counters (sequential, deterministic)
//  5. control     — BM exchange, gossip, adaptation, recruiting,
//     status reports (parallel per world shard over the due nodes,
//     cross-node mutations deferred to the barrier; see effects.go)
//
// The parallel phases run on sim's persistent worker pool through
// shard functions bound once at construction, with all per-tick
// parameters staged in World scratch fields — a steady-state tick
// allocates nothing and spawns no goroutines.
func (w *World) tick(prev, now sim.Time) {
	dt := (now - prev).Seconds()
	if dt <= 0 {
		return
	}
	// Apply membership removals batched since the last tick (departures
	// mark their shard's list dirty instead of paying an O(n) memmove
	// per departure; see removeActive). The tick snapshot is the merged
	// sorted view — with one shard a zero-copy alias of its list.
	w.compactAllActive()
	w.tickIDs = w.mergedActive() // snapshot: phases 1-4 do not change membership
	w.tickDt = dt
	w.tickLive = w.liveEdge(now)
	w.tickLoss = 0
	if w.Faults != nil {
		w.tickLoss = w.Faults.LossFrac(now)
	}
	// Lane and flag-list counts cover both indexing schemes: the
	// range-split playback indexes by worker slot (< GOMAXPROCS), the
	// shard-local playback by world shard (< nshards).
	lanes := runtime.GOMAXPROCS(0)
	if w.nshards > lanes {
		lanes = w.nshards
	}
	if w.sharded != nil {
		w.ensureLanes(lanes)
	}
	// Stage the Inequality (1) detector for the playback shards: a node
	// whose deviation crossed Ts with the adaptation cool-down expired
	// is flagged into its shard's list and merged into this tick's
	// control drain (see playbackIDs and controlSharded).
	w.tickAdaptCut = now - w.P.Ta
	w.tickTsF = float64(w.P.Ts)
	for len(w.advFlagShards) < lanes {
		w.advFlagShards = append(w.advFlagShards, nil)
	}
	for i := range w.advFlagShards {
		w.advFlagShards[i] = w.advFlagShards[i][:0]
	}
	if w.phaseClock {
		t0 := time.Now()
		w.allocate()
		t1 := time.Now()
		w.advance()
		t2 := time.Now()
		w.playback()
		t3 := time.Now()
		w.account(w.tickIDs)
		t4 := time.Now()
		w.Phases.Allocate += t1.Sub(t0).Nanoseconds()
		w.Phases.Advance += t2.Sub(t1).Nanoseconds()
		w.Phases.Playback += t3.Sub(t2).Nanoseconds()
		w.Phases.Account += t4.Sub(t3).Nanoseconds()
	} else {
		w.allocate()
		w.advance()
		w.playback()
		w.account(w.tickIDs)
	}
	w.faultStep(dt)
	if w.controlClock {
		start := time.Now()
		w.controlSharded(now)
		w.ControlNanos += time.Since(start).Nanoseconds()
	} else {
		w.controlSharded(now)
	}
	// Settle departures that happened during control (stall abandons)
	// so per-tick observers see a membership-consistent active list.
	// One pass per tick with any departures, instead of one memmove per
	// departure.
	w.compactAllActive()
}

// allocate runs the water-filling allocator on every serving node.
// Each parent writes the allocated rate into its children's
// subscription slots; a (child, sub-stream) slot has exactly one
// parent, so the parallel writes never collide — including across
// world shards, which is why the shard-local path needs no routing.
// With more than one shard the phase iterates the per-shard active
// lists directly (one worker per world shard, no merged-view
// rebuild); the single-shard path range-splits the merged snapshot.
// The allocator is per-parent independent, so both partitions compute
// bit-identical rates.
func (w *World) allocate() {
	if w.nshards > 1 {
		sim.ParallelGrain(w.nshards, 1, w.allocateLocalFn)
		return
	}
	sim.Parallel(len(w.tickIDs), w.allocateFn)
}

func (w *World) allocateShard(lo, hi int) {
	if w.labelPhases {
		profiling.WithLabel("allocate", func() { w.allocateIDs(w.tickIDs[lo:hi]) })
		return
	}
	w.allocateIDs(w.tickIDs[lo:hi])
}

// allocateLocalRange allocates for world shards [lo, hi) over their
// own active lists.
func (w *World) allocateLocalRange(lo, hi int) {
	if w.labelPhases {
		profiling.WithLabel("allocate", func() { w.allocateLocal(lo, hi) })
		return
	}
	w.allocateLocal(lo, hi)
}

func (w *World) allocateLocal(lo, hi int) {
	for si := lo; si < hi; si++ {
		w.allocateIDs(w.shards[si].active)
	}
}

func (w *World) allocateIDs(ids []int) {
	subRate := w.P.Layout.SubRateBps()
	k := w.P.Layout.K
	equalSplit := w.P.EqualSplitAllocator()
	for _, id := range ids {
		n := w.nodes[id]
		demands := n.allocDemands[:0]
		slots := n.allocSlots[:0]
		for j := 0; j < k; j++ {
			for _, c := range n.children[j] {
				child := w.nodes[c]
				// The child's downlink bounds what it can absorb on
				// any lane; a caught-up child additionally only
				// needs the live sub-stream rate.
				need := child.EP.DownloadBps / float64(k)
				if child.Subs[j].H >= n.Subs[j].H-1 && need > subRate {
					need = subRate
				}
				demands = append(demands, netmodel.Demand{Need: need, Weight: 1})
				slots = append(slots, allocSlot{child: c, sub: j})
			}
		}
		n.allocDemands = demands
		n.allocSlots = slots
		if len(demands) == 0 {
			continue
		}
		if equalSplit {
			// Paper Eq. (5) literally: capacity/D per transmission,
			// wasting any surplus a caught-up child cannot absorb.
			rate := netmodel.EqualSplit(n.EP.UploadBps, len(demands))
			for i, s := range slots {
				r := rate
				if r > demands[i].Need {
					r = demands[i].Need
				}
				w.nodes[s.child].Subs[s.sub].RateBps = r
			}
			continue
		}
		rates := n.filler.Fill(n.EP.UploadBps, demands)
		for i, s := range slots {
			w.nodes[s.child].Subs[s.sub].RateBps = rates[i]
		}
	}
}

// advance moves every H value forward by dt along the per-sub-stream
// parent forests. The seed engine re-walked each forest recursively
// with per-node closures every tick; here the walk order is a cached
// flattened edge array (see topo.go) rebuilt only when a sub-stream's
// topology epoch moved, so the steady-state sweep is linear,
// branch-light and allocation-free. Sub-streams are independent, so
// the loop parallelises across them at grain 1.
func (w *World) advance() {
	w.ensureTopo()
	sim.ParallelGrain(w.P.Layout.K, 1, w.advanceFn)
}

func (w *World) advanceShard(lo, hi int) {
	if w.labelPhases {
		profiling.WithLabel("advance", func() { w.advanceSubs(lo, hi) })
		return
	}
	w.advanceSubs(lo, hi)
}

func (w *World) advanceSubs(lo, hi int) {
	live := w.tickLive
	dt := w.tickDt
	// Burst loss thins every transfer by the staged fraction. With no
	// active loss window lossKeep is exactly 1.0, an exact float
	// identity, so fault-free runs move bit-identical H values.
	lossKeep := 1 - w.tickLoss
	blockBits := 8 * float64(w.P.Layout.BlockBytes)
	nodes := w.nodes
	for j := lo; j < hi; j++ {
		// Servers sit pinned at the live edge before their subtrees
		// advance (they lead every cached edge list they appear in).
		for _, sid := range w.servers {
			nodes[sid].Subs[j].H = live
		}
		for _, e := range w.topo.order[j] {
			s := e.cs
			moved := s.RateBps * dt * lossKeep / blockBits
			newH := s.H + moved
			if parentH := *e.ph; newH > parentH {
				newH = parentH
			}
			if newH > live {
				newH = live
			}
			if newH < s.H {
				newH = s.H
			}
			s.movedBlocks += newH - s.H
			s.H = newH
		}
	}
}

// playback advances deadlines, integrates missed blocks, and detects
// media-ready transitions. Each node touches only its own state; with
// a sharded sink, media-ready records are logged straight from the
// shard's own lane (the merge on drain restores canonical order).
// With more than one world shard the sweep runs over the per-shard
// active lists (one worker per world shard), so the Inequality (1)
// flag lists come out pre-partitioned by owner shard — the control
// phase routes them with a straight append instead of a per-ID
// shard lookup.
func (w *World) playback() {
	if w.nshards > 1 {
		sim.ParallelGrain(w.nshards, 1, w.playbackLocalFn)
		return
	}
	sim.ParallelShard(len(w.tickIDs), minPhaseGrain, w.playbackFn)
}

// minPhaseGrain mirrors sim's default Parallel grain for the per-node
// phases.
const minPhaseGrain = 64

func (w *World) playbackShard(shard, lo, hi int) {
	if w.labelPhases {
		profiling.WithLabel("playback", func() { w.playbackIDs(shard, w.tickIDs[lo:hi]) })
		return
	}
	w.playbackIDs(shard, w.tickIDs[lo:hi])
}

// playbackLocalRange plays back world shards [lo, hi) over their own
// active lists; flag lists and log lanes are indexed by world shard.
func (w *World) playbackLocalRange(lo, hi int) {
	if w.labelPhases {
		profiling.WithLabel("playback", func() { w.playbackLocal(lo, hi) })
		return
	}
	w.playbackLocal(lo, hi)
}

func (w *World) playbackLocal(lo, hi int) {
	for si := lo; si < hi; si++ {
		w.playbackIDs(si, w.shards[si].active)
	}
}

func (w *World) playbackIDs(shard int, ids []int) {
	dt := w.tickDt
	beta := w.P.Layout.SubBlocksPerSecond()
	readyBlocks := w.P.ReadyBlocks()
	var lane *logsys.Lane
	if w.sharded != nil && shard < len(w.laneSinks) {
		lane = w.laneSinks[shard]
	}
	// Inequality (1) detection rides the playback sweep while the
	// sub-stream state is cache-hot: H only moves in the advance phase,
	// so a deviation crossing observed here is exactly what the control
	// phase of this same tick would observe. Each shard owns a disjoint
	// slice of nodes and its own flag list, so the writes never collide.
	flagging := shard < len(w.advFlagShards)
	for _, id := range ids {
		n := w.nodes[id]
		if n.IsServer() {
			continue
		}
		switch n.State {
		case StateSubscribing:
			if n.MinH() >= n.startPos+readyBlocks {
				n.State = StateReady
				n.ReadyAt = w.Engine.Now()
				n.hot.playDeadline = n.startPos
				n.readyPending = true
				if lane != nil {
					// Lock-free parallel log: same record the control
					// phase would emit (same virtual time, same fields).
					w.logLane(lane, n, logsys.Record{Kind: logsys.KindMediaReady})
					n.readyLogged = true
				}
			}
		case StateReady:
			h := n.hot
			d0 := h.playDeadline
			d1 := d0 + beta*dt
			for j := range n.Subs {
				s := &n.Subs[j]
				h0 := s.H - s.movedBlocks
				rho := s.movedBlocks / dt
				h.missedBlocks += missedSeq(h0, rho, d0, d1, beta)
				h.totalBlocks += d1 - d0
			}
			h.playDeadline = d1
		}
		if flagging && !n.advFlag && n.lastAdaptAt <= w.tickAdaptCut &&
			len(n.partnerList) > 0 &&
			(n.State == StateSubscribing || n.State == StateReady) {
			maxH := n.MaxH()
			for j := range n.Subs {
				if n.Subs[j].Parent != NoParent && maxH-n.Subs[j].H >= w.tickTsF {
					n.advFlag = true
					w.advFlagShards[shard] = append(w.advFlagShards[shard], int32(n.ID))
					break
				}
			}
		}
	}
}

// account drains per-subscription movedBlocks into the byte counters
// of child and parent. Sequential so parents aggregate deterministically.
func (w *World) account(ids []int) {
	blockBytes := float64(w.P.Layout.BlockBytes)
	for _, id := range ids {
		n := w.nodes[id]
		for j := range n.Subs {
			s := &n.Subs[j]
			if s.movedBlocks == 0 {
				continue
			}
			bytes := s.movedBlocks * blockBytes
			n.downBytes += bytes
			n.CumDownloadB += bytes
			if p := s.Parent; p != NoParent {
				parent := w.nodes[p]
				parent.upBytes += bytes
				parent.CumUploadB += bytes
			}
			s.movedBlocks = 0
		}
	}
}

// controlVisit runs one node's control sequence for this tick. The
// statement order is the protocol's per-tick contract: BM refresh,
// gossip, state-specific subscription work, recruiting, the stall
// check, then status reports. Cross-node mutations go through the
// visit context and commit at the barrier; counters go to the visiting
// shard and fold there too.
func (w *World) controlVisit(vc *vctx, n *Node, now sim.Time) {
	vc.beginVisit(n)
	vc.sh.visits++
	if n.readyPending {
		n.readyPending = false
		vc.sh.ready++
		if n.readyLogged {
			n.readyLogged = false // already emitted from the playback lane
		} else {
			w.vlog(vc, n, logsys.Record{Kind: logsys.KindMediaReady})
		}
	}
	hint := w.refreshBMs(vc, n, now)
	w.gossipStep(vc, n, now)
	switch n.State {
	case StateJoining:
		w.tryInitialSubscription(vc, n)
	case StateSubscribing, StateReady:
		adv := n.advFlag
		n.advFlag = false
		filled := w.fillStalledSubstreams(vc, n)
		// The §IV-B evaluation reads only partner BMs, the partner set
		// and the node's own Subs. Each way an input can newly violate
		// an inequality has a dedicated signal: the playback phase flags
		// Inequality (1) crossings of the fluid H state (adv), the BM
		// refresh reports changes that can affect Inequality (2) or the
		// parent set (hint, see refreshBMs), a re-parented sub-stream
		// re-evaluates immediately (filled), and membership changes from
		// outside the visit zero adaptDue via touchNode. Skipping the
		// evaluation otherwise is behaviour-preserving.
		if adv || hint || filled || n.adaptDue <= now {
			w.adapt(vc, n, now)
			n.adaptDue = w.adaptEvalBound(n, now)
		}
	}
	w.maintainPartners(vc, n, now)
	w.stallCheck(vc, n, now)
	if vc.abandoned {
		return // abandoned mid-interval: the bad report is censored
	}
	w.statusReports(vc, n, now)
}

// refreshBMs updates cached partner buffer maps that are due and
// reports whether the scan changed any §IV-B adaptation input
// (evalHint): a refresh can create a new Inequality (2) violation only
// if it advanced the best-partner head past the value held at the last
// evaluation (bestSeen), refreshed a current parent's BM, or tore a
// partnership down. Refreshes that do none of those leave every
// adaptation input the partner set holds provably unchanged — partner
// heads only ever advance, so a scan whose every refreshed MaxLatest
// stays at or below bestSeen cannot have raised the best reference
// point past what the last evaluation already judged against. With
// control loss enabled, a due refresh may be skipped, leaving the view
// one period staler.
//
// Iteration follows the sorted partner-ID slice: the seed ranged over
// the Partners map while drawing from n.rng inside the loop, so with
// control loss enabled the RNG stream — and hence the whole run —
// depended on Go's randomized map iteration order.
func (w *World) refreshBMs(vc *vctx, n *Node, now sim.Time) (evalHint bool) {
	if now < n.bmDue {
		// Nothing can be due yet (bmDue is a conservative lower bound
		// maintained below and reset on partner establishment), so the
		// whole scan — including its failure-detection side effects,
		// which only ever fire on due entries — is a provable no-op.
		return false
	}
	due := sim.Time(0)
	for i := 0; i < len(n.partnerIDs); {
		pid := n.partnerIDs[i]
		p := n.partnerList[i]
		if now-p.BMAt < w.P.BMPeriod {
			if next := p.BMAt + w.P.BMPeriod; due == 0 || next < due {
				due = next
			}
			i++
			continue
		}
		partner := w.nodes[pid]
		if partner.State == StateDeparted {
			// Crash detection: the BM exchange fails, the partnership
			// is torn down, and any sub-stream served by the corpse is
			// marked stalled. delPartner shifts the slice left, so i
			// stays put. The local half (our own partner set) applies
			// at once — only this node reads it; the sub-stream detach
			// and the corpse-side child registry defer.
			evalHint = true
			n.delPartner(pid)
			n.partnerChanges++
			vc.emitCrash(n, pid)
			continue
		}
		if w.P.ControlLossProb > 0 && n.rng.Bool(w.P.ControlLossProb) {
			p.BMAt = now // the exchange round happened but was lost
		} else {
			// A remote read of frozen state: every H/parent/state write
			// is confined to sequential phases or the barrier, so the
			// snapshot is the same whatever shard (or tick-phase slot)
			// performs it.
			partner.fillBufferMap(&p.BM, n.ID)
			p.BMAt = now
			vc.sh.bmRefreshes++
			if !evalHint {
				if p.BM.MaxLatest() > n.bestSeen {
					evalHint = true
				} else {
					for j := range n.Subs {
						if vc.parent(n, j) == pid {
							evalHint = true
							break
						}
					}
				}
			}
		}
		if next := p.BMAt + w.P.BMPeriod; due == 0 || next < due {
			due = next
		}
		i++
	}
	if due == 0 {
		// No partners left: any future partner resets bmDue to zero at
		// establishment, so this bound can be a full period out.
		due = now + w.P.BMPeriod
	}
	n.bmDue = due
	return evalHint
}

// gossipStep merges membership knowledge with one random partner. The
// partner choice draws from n's own RNG at visit time; the exchange
// itself (which draws from the *partner's* mCache RNG and mutates both
// caches) defers to the barrier so the partner's streams advance in
// canonical order.
func (w *World) gossipStep(vc *vctx, n *Node, now sim.Time) {
	if now-n.lastGossipAt < w.P.GossipPeriod || len(n.Partners) == 0 {
		return
	}
	n.lastGossipAt = now
	pid := n.pickRandomPartner()
	if w.nodes[pid].State == StateDeparted {
		return // detected and torn down at the next BM refresh
	}
	vc.emitPar(pid, effGossip, int32(pid), 0, 0)
}

func (n *Node) pickRandomPartner() int {
	// partnerIDs is maintained sorted, so the draw is deterministic
	// with no per-call collect-and-sort.
	return n.partnerIDs[n.rng.Intn(len(n.partnerIDs))]
}

// bestPartnerH returns the max of max-latest over all partners' cached
// BMs — the reference point of Inequality (2) and of the join shift.
func (n *Node) bestPartnerH() (int64, bool) {
	var best int64
	found := false
	for _, p := range n.partnerList {
		if m := p.BM.MaxLatest(); !found || m > best {
			best = m
			found = true
		}
	}
	return best, found
}

// tryInitialSubscription implements §IV-A: once partners' BMs are
// visible, choose the start position m - Tp and subscribe each
// sub-stream to an eligible parent. The H rewrite and the
// Joining→Subscribing transition commit at the barrier (remote visits
// read our H through fillBufferMap); the subscribe decisions are
// computed at visit time against the would-be start position.
func (w *World) tryInitialSubscription(vc *vctx, n *Node) {
	best, ok := n.bestPartnerH()
	if !ok || best <= w.P.Tp {
		return // partners know nothing useful yet
	}
	start := float64(best - w.P.Tp)
	vc.emitPar(n.ID, effStartSub, 0, 0, start)
	got := 0
	for j := range n.Subs {
		if w.subscribe(vc, n, j, best, start) {
			got++
		}
	}
	if got > 0 {
		vc.emitPar(n.ID, effStartSub, 1, 0, start)
		w.vlog(vc, n, logsys.Record{Kind: logsys.KindStartSub})
	}
}

// fillStalledSubstreams re-subscribes sub-streams without a parent
// (not rate-limited by Ta — there is nothing to disrupt), reporting
// whether any sub-stream was re-parented: a fresh parent changes the
// §IV-B inputs, so the caller must re-evaluate adaptation this tick.
func (w *World) fillStalledSubstreams(vc *vctx, n *Node) bool {
	stalled := false
	for j := range n.Subs {
		if vc.parent(n, j) == NoParent {
			stalled = true
			break
		}
	}
	if !stalled {
		return false // the common case: skip the partner-BM max scan entirely
	}
	best, ok := n.bestPartnerH()
	if !ok {
		return false
	}
	acted := false
	for j := range n.Subs {
		if vc.parent(n, j) == NoParent {
			if w.subscribe(vc, n, j, best, n.Subs[j].H) {
				acted = true
			}
		}
	}
	return acted
}

// subscribe picks an eligible partner as parent for sub-stream j.
// Eligibility follows §IV-B: the candidate must be ahead of us on j,
// within Tp of the best partner (Inequality (2) at selection time),
// and not create a cycle. Among several eligible partners the choice
// is random (the paper's randomized selection).
func (w *World) subscribe(vc *vctx, n *Node, j int, best int64, hj float64) bool {
	cands := n.candScratch[:0]
	for i, pid := range n.partnerIDs {
		p := n.partnerList[i]
		if p.BM.K() != w.P.Layout.K {
			continue
		}
		if w.nodes[pid].State == StateDeparted {
			continue // a real subscribe would fail to connect
		}
		latest := p.BM.Latest[j]
		if float64(latest) <= hj {
			continue // nothing we need
		}
		if best-latest >= w.P.Tp {
			continue // Inequality (2) would already be violated
		}
		if w.wouldCycle(n, j, pid) {
			continue
		}
		cands = append(cands, pid)
	}
	n.candScratch = cands
	if len(cands) == 0 {
		return false
	}
	var choice int
	if w.P.ParentSelection == "freshest" {
		// Greedy ablation: always take the partner advertising the
		// highest sequence on this sub-stream.
		choice = cands[0]
		for _, pid := range cands[1:] {
			if n.Partners[pid].BM.Latest[j] > n.Partners[choice].BM.Latest[j] {
				choice = pid
			}
		}
	} else {
		choice = cands[n.rng.Intn(len(cands))]
	}
	if vc.parent(n, j) == choice {
		return true
	}
	vc.setParent(n, j, choice)
	return true
}

// wouldCycle walks candidate's ancestry on sub-stream j to reject
// subscriptions that would close a loop.
func (w *World) wouldCycle(n *Node, j, candidate int) bool {
	cur := candidate
	for steps := 0; steps < len(w.nodes); steps++ {
		if cur == n.ID {
			return true
		}
		next := w.nodes[cur].Subs[j].Parent
		if next == NoParent {
			return false
		}
		cur = next
	}
	return true // unreachable unless the forest is corrupt; fail safe
}

// adapt implements §IV-B peer adaptation: Inequality (1) monitors the
// node's own sub-stream deviation against Ts; Inequality (2) monitors
// the parent's advertised progress against the best partner and Tp.
// At most one parent switch per cool-down period Ta.
func (w *World) adapt(vc *vctx, n *Node, now sim.Time) {
	if now-n.lastAdaptAt < w.P.Ta {
		return
	}
	best, ok := n.bestPartnerH()
	if !ok {
		return
	}
	// Record the reference point this evaluation judged against: a later
	// BM refresh only changes the Inequality (2) verdict if it pushes
	// some partner head past this value (see refreshBMs).
	n.bestSeen = best
	maxH := n.MaxH()
	worst, worstLag := -1, float64(0)
	for j := range n.Subs {
		pid := vc.parent(n, j)
		if pid == NoParent {
			continue
		}
		lag1 := maxH - n.Subs[j].H // Inequality (1) deviation
		violated := lag1 >= float64(w.P.Ts)
		if p, okp := n.Partners[pid]; okp && p.BM.K() == w.P.Layout.K {
			if best-p.BM.Latest[j] >= w.P.Tp { // Inequality (2)
				violated = true
			}
		} else {
			// The parent is no longer a partner (link lost): always
			// re-select.
			violated = true
		}
		if violated && lag1 >= worstLag {
			worst, worstLag = j, lag1
		}
	}
	if worst < 0 {
		return
	}
	// Drop the failing parent and re-select; if no eligible partner
	// exists the sub-stream stays stalled and the next rounds retry.
	if vc.parent(n, worst) != NoParent {
		vc.setParent(n, worst, NoParent)
	}
	w.subscribe(vc, n, worst, best, n.Subs[worst].H)
	n.lastAdaptAt = now
	vc.sh.adapts++
}

// maintainPartners recruits replacements when the partner set shrinks
// below the minimum, re-contacting the bootstrap if the mCache is dry.
func (w *World) maintainPartners(vc *vctx, n *Node, now sim.Time) {
	if len(n.Partners) >= w.P.MinPartners || now < n.recruitingDue {
		return
	}
	n.recruitingDue = now + 2*sim.Second
	if n.MCache.Len() == 0 {
		vc.emit(effSchedule, 1, 0, w.P.BootstrapRTT, 0)
		return
	}
	w.recruit(vc, n)
}

// stallCheck models the frustrated user: once the current report
// interval shows badly stalled playback, the user departs and
// re-enters with a constant hazard — usually *before* the next status
// report fires. This is precisely the censoring mechanism of §V-D:
// the stalled interval's low continuity index never reaches the log
// server, which is why NAT/firewall users' *reported* continuity can
// exceed direct-connect users' despite worse actual service.
func (w *World) stallCheck(vc *vctx, n *Node, now sim.Time) {
	if n.State != StateReady || n.hot.totalBlocks <= 0 || w.StallAbandonProb <= 0 {
		return
	}
	if now-n.lastReportAt < w.P.ReportPeriod/4 {
		return // too little evidence this interval
	}
	ci := 1 - n.hot.missedBlocks/n.hot.totalBlocks
	if ci >= w.StallContinuity {
		return
	}
	// Per-tick hazard such that the total abandon probability over one
	// report period is ~StallAbandonProb.
	pTick := w.StallAbandonProb * float64(w.Engine.TickPeriod()) / float64(w.P.ReportPeriod)
	if pTick > 1 {
		pTick = 1
	}
	if n.rng.Bool(pTick) {
		// The departure mutates shared membership state; it commits at
		// the barrier. Mark the visit so the visit loop does not re-arm a
		// node that has already decided to leave.
		vc.abandoned = true
		vc.emit(effAbandon, 0, 0, 0, 0)
	}
}

// statusReports emits the periodic QoS / traffic / partner reports.
func (w *World) statusReports(vc *vctx, n *Node, now sim.Time) {
	if now-n.lastReportAt < w.P.ReportPeriod {
		return
	}
	n.lastReportAt = now
	continuity := 1.0
	hasCI := n.State == StateReady && n.hot.totalBlocks > 0
	if hasCI {
		continuity = 1 - n.hot.missedBlocks/n.hot.totalBlocks
		if continuity < 0 {
			continuity = 0
		}
		w.vlog(vc, n, logsys.Record{Kind: logsys.KindQoS, Continuity: continuity})
	}
	w.vlog(vc, n, logsys.Record{
		Kind:          logsys.KindTraffic,
		UploadBytes:   int64(n.upBytes),
		DownloadBytes: int64(n.downBytes),
	})
	in, out := n.PartnerCounts()
	reach, total, natLinks := vc.parentStats(n)
	w.vlog(vc, n, logsys.Record{
		Kind:            logsys.KindPartner,
		InPartners:      in,
		OutPartners:     out,
		ParentReachable: reach,
		ParentTotal:     total,
		NATParentLinks:  natLinks,
		PartnerChanges:  n.partnerChanges,
	})
	n.hot.missedBlocks, n.hot.totalBlocks = 0, 0
	n.upBytes, n.downBytes = 0, 0
	n.partnerChanges = 0
	vc.emit(effBootUpdate, int32(in+out), 0, 0, 0)
}
