package peer

import (
	"fmt"
	"strconv"

	"coolstream/internal/faults"
	"coolstream/internal/gossip"
	"coolstream/internal/logsys"
	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// World owns the full overlay population and advances it on the
// simulation engine: the source/server tier, every peer node, the
// bootstrap, and the log sink. It is the composition root of the
// Coolstreaming system.
type World struct {
	P       Params
	Engine  *sim.Engine
	Sink    logsys.Sink
	Boot    *gossip.Bootstrap
	Latency netmodel.LatencyModel
	Reach   netmodel.Reachability
	Policy  gossip.Policy

	rng   *xrand.RNG
	nodes []*Node
	// shards partitions the world into per-core world shards (see
	// shard.go): each owns its membership list, due-wheel, node arenas
	// and free lists, log lane, effect outbox and counters. NewWorld
	// starts at one shard; SetShards grows the partition before the
	// first join. Results are identical for every shard count.
	shards  []*worldShard
	nshards int
	// memberEpoch counts membership mutations; mergedActive rebuilds
	// its merged-ID scratch only when it moved past mergedEpoch, and
	// only for the shards whose own memberEpoch moved (the dirty
	// shards). mergedShardEpochs/mergedShardLens record the per-shard
	// state the cached merge reflects; mergedScratch is the departure
	// path's double buffer; dirtyScratch/dirtyMark are rebuild
	// scratch.
	memberEpoch       uint64
	mergedEpoch       uint64
	mergedIDs         []int
	mergedShardEpochs []uint64
	mergedShardLens   []int
	mergedScratch     []int
	dirtyScratch      []int
	dirtyMark         []bool
	// effCur is the k-way merge cursor scratch (one slot per shard)
	// shared by the sequential merge loops.
	effCur []int
	// shardVisitFn is the bound parallel stage of controlSharded;
	// drainTargetFn/drainSourceFn are the bound parallel drain passes;
	// tickNow stages the visit timestamp for them.
	shardVisitFn  func(lo, hi int)
	drainTargetFn func(lo, hi int)
	drainSourceFn func(lo, hi int)
	tickNow       sim.Time
	// testBarrierHook (tests only) runs after the parallel visit phase
	// and before the drain passes — the window where every routed
	// queue is complete and untouched. drainLogOn arms the per-shard
	// applied-order capture of the drain-order property test.
	testBarrierHook func()
	drainLogOn      bool

	servers  []int // IDs of the server tier, in creation order (never departs)
	sessions int

	// controlClock/ControlNanos optionally meter wall time spent in the
	// control phase (enabled by benchmarks via MeterControl). phaseClock
	// and Phases extend the metering to every tick phase (MeterPhases).
	controlClock bool
	ControlNanos int64
	phaseClock   bool
	Phases       PhaseNanos
	// ControlVisits counts controlVisit invocations — the due wheel's
	// work in one number. Like ReadySessions and Adaptations below it is
	// a barrier-folded total: visits count on their shard and fold here
	// once per tick (foldCounters), so a mid-run read sees every tick
	// completed so far and never a partial one.
	ControlVisits int64

	// labelBuf is the reusable node-RNG label encoder buffer
	// ("node-<id>" without fmt).
	labelBuf []byte

	// Staged event callbacks: the high-rate events (bootstrap reply,
	// leave, join timeout, partnership completion) carry their operands
	// in the event payload and share these four method values, so the
	// churn path allocates no per-event closures.
	bootstrapFn   func(sim.EvPayload)
	leaveFn       func(sim.EvPayload)
	timeoutFn     func(sim.EvPayload)
	partnershipFn func(sim.EvPayload)
	retryFn       func(sim.EvPayload)
	rejoinFn      func(sim.EvPayload)

	// Faults is the injected fault schedule (nil = fault-free). All
	// probabilistic fault draws happen in sequential phases (events,
	// control, the per-tick fault step), so fault firings are part of
	// the deterministic run and fold into the run digest.
	Faults *faults.Schedule
	// Retry is the capped-exponential join/re-contact backoff with
	// deterministic jitter; the zero value keeps the legacy fixed
	// Params.RetryDelay.
	Retry faults.Backoff
	// faultRNG drives the world-level fault draws (partner kills) on
	// its own labeled stream so enabling faults never perturbs node or
	// scenario streams.
	faultRNG *xrand.RNG
	// retrySalt folds the run seed into the deterministic retry jitter.
	retrySalt uint64
	// killScratch is the candidate buffer of the partner-kill step.
	killScratch []int

	// topo caches the flattened per-sub-stream traversal orders the
	// advance phase sweeps; see topo.go for the epoch contract.
	topo *topoCache

	// sharded is non-nil when the configured sink is a
	// logsys.ShardedSink; parallel phases then log straight into
	// per-shard lanes (laneSinks, grown sequentially in tick) instead
	// of deferring records to the control phase's record lanes. With
	// any other sink the deferral keeps the record stream deterministic
	// (e.g. through a BufferedSink's outage queue, whose drop decisions
	// depend on arrival order).
	sharded   *logsys.ShardedSink
	laneSinks []*logsys.Lane

	// Persistent per-phase shard functions and per-tick scratch: the
	// parallel phases hand the same closures to the worker pool every
	// tick, so steady-state ticks allocate nothing.
	allocateFn func(lo, hi int)
	advanceFn  func(lo, hi int)
	playbackFn func(shard, lo, hi int)
	// allocateLocalFn/playbackLocalFn are the shard-local variants
	// (one worker per world shard over its own active list).
	allocateLocalFn func(lo, hi int)
	playbackLocalFn func(lo, hi int)
	// labelPhases wraps every phase worker in a pprof phase label so
	// CPU profiles attribute samples by tick phase (LabelPhases).
	labelPhases bool
	tickIDs     []int
	tickDt      float64
	tickLive    float64
	// tickLoss is this tick's burst-loss fraction, staged once per tick
	// from the fault schedule so the parallel advance shards read a
	// plain float. Zero whenever faults are off or no window is active.
	tickLoss float64
	// advFlagShards collects, per playback shard, the IDs whose
	// Inequality (1) deviation crossed Ts this tick with the adaptation
	// cool-down expired; controlSharded merges the lists into the due
	// set so the flagged nodes are visited this same tick. tickAdaptCut/tickTsF stage the cool-down cut-off and the Ts
	// threshold as plain values the parallel shards can read.
	advFlagShards [][]int32
	tickAdaptCut  sim.Time
	tickTsF       float64

	// StallContinuity/StallAbandonProb model frustrated users: a Ready
	// node whose report-interval continuity falls below the threshold
	// departs and re-enters with the given probability (the paper's
	// churn-driven depart-and-rejoin behaviour, §V-D).
	StallContinuity  float64
	StallAbandonProb float64
	// CrashProb is the probability that a user-initiated departure is
	// ungraceful (no TCP teardown): partners and children discover it
	// only through failed BM exchanges and Inequality (1) lag.
	CrashProb float64
	// Counters for experiment summaries. ReadySessions is
	// barrier-folded (see ControlVisits); the others move in sequential
	// phases only.
	JoinedSessions  int
	FailedSessions  int
	ReadySessions   int
	AbandonSessions int
	// Adaptations counts parent switches triggered by the §IV-B
	// inequalities (the overlay's self-repair work rate).
	// Barrier-folded, see ControlVisits.
	Adaptations int
}

// NewWorld wires a world onto the engine. The engine's tick callback
// is registered here; callers then schedule joins and call Engine.Run.
func NewWorld(p Params, engine *sim.Engine, sink logsys.Sink, latency netmodel.LatencyModel, policy gossip.Policy, seed uint64) (*World, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if engine == nil || sink == nil || latency == nil || policy == nil {
		return nil, fmt.Errorf("peer: nil dependency")
	}
	root := xrand.New(seed)
	w := &World{
		P:                p,
		Engine:           engine,
		Sink:             sink,
		Latency:          latency,
		Reach:            netmodel.Reachability{TraversalProb: p.TraversalProb},
		Policy:           policy,
		rng:              root.SplitLabeled("world"),
		faultRNG:         root.SplitLabeled("faults"),
		retrySalt:        seed,
		Boot:             gossip.NewBootstrap(root.SplitLabeled("bootstrap")),
		StallContinuity:  0.85,
		StallAbandonProb: 0.7,
		CrashProb:        0.3,
		topo:             newTopoCache(p.Layout.K),
	}
	w.allocateFn = w.allocateShard
	w.advanceFn = w.advanceShard
	w.playbackFn = w.playbackShard
	w.allocateLocalFn = w.allocateLocalRange
	w.playbackLocalFn = w.playbackLocalRange
	w.shardVisitFn = w.shardVisitRange
	w.drainTargetFn = w.drainTargetRange
	w.drainSourceFn = w.drainSourceRange
	w.bootstrapFn = w.bootstrapFire
	w.leaveFn = w.leaveFire
	w.timeoutFn = w.timeoutFire
	w.partnershipFn = w.completePartnership
	w.retryFn = w.retryFire
	w.rejoinFn = w.rejoinFire
	w.shards = []*worldShard{w.newShard(0)}
	w.nshards = 1
	w.effCur = make([]int, 1)
	if ss, ok := sink.(*logsys.ShardedSink); ok {
		w.sharded = ss
	}
	engine.OnTick(w.tick)
	return w, nil
}

// MeterControl enables wall-clock metering of the control phase; the
// accumulated total is read from ControlNanos. Benchmarks use it to
// isolate control-plane cost from the fluid data plane.
func (w *World) MeterControl(on bool) { w.controlClock = on }

// Node returns the node with the given ID (nil if out of range).
func (w *World) Node(id int) *Node {
	if id < 0 || id >= len(w.nodes) {
		return nil
	}
	return w.nodes[id]
}

// Nodes returns all nodes ever created (departed included), indexed by ID.
func (w *World) Nodes() []*Node { return w.nodes }

// ActiveCount returns the number of active nodes including servers.
// O(shards): each shard maintains its own list and dirty count.
func (w *World) ActiveCount() int {
	total := 0
	for _, sh := range w.shards {
		total += len(sh.active) - sh.activeDirty
	}
	return total
}

// ActivePeerCount returns the number of active non-server peers.
// O(shards): each shard maintains its count incrementally at join and
// departure, so the hot path touches no world-global counter.
func (w *World) ActivePeerCount() int {
	total := 0
	for _, sh := range w.shards {
		total += sh.activePeers
	}
	return total
}

// nodeChunk is the arena granularity for node shells.
const nodeChunk = 256

func (w *World) newNode(ep netmodel.Endpoint, userID int) *Node {
	id := len(w.nodes)
	sh := w.shards[shardIndex(id, w.nshards)]
	w.sessions++
	k := w.P.Layout.K
	// Carve the shell and its fixed-size per-sub slices from the
	// owning shard's chunked arenas: one allocation per nodeChunk
	// sessions instead of three per session. Arena entries are fresh
	// zeroed memory, so the explicit assignments below are exactly the
	// old composite literal.
	if len(sh.nodeArena) == 0 {
		sh.nodeArena = make([]Node, nodeChunk)
	}
	n := &sh.nodeArena[0]
	sh.nodeArena = sh.nodeArena[1:]
	if len(sh.subArena) < k {
		sh.subArena = make([]Subscription, nodeChunk*k)
	}
	subs := sh.subArena[:k:k]
	sh.subArena = sh.subArena[k:]
	if len(sh.childArena) < k {
		sh.childArena = make([][]int, nodeChunk*k)
	}
	children := sh.childArena[:k:k]
	sh.childArena = sh.childArena[k:]
	if len(sh.hotArena) == 0 {
		sh.hotArena = make([]nodeHot, nodeChunk)
	}
	hot := &sh.hotArena[0]
	sh.hotArena = sh.hotArena[1:]

	n.ID = id
	n.shard = int32(sh.idx)
	n.UserID = userID
	n.Session = w.sessions
	n.EP = ep
	n.JoinedAt = w.Engine.Now()
	n.Subs = subs
	n.children = children
	n.hot = hot
	n.topo = w.topo
	n.pool = &sh.ppool
	// The node RNG is seeded from the world stream and the "node-<id>"
	// label exactly as the seed engine's SplitLabeled(fmt.Sprintf(...))
	// did, but into the inline store with no formatting allocations.
	n.rngStore.ReseedLabeledBytes(w.rng, w.nodeLabel(id))
	n.rng = &n.rngStore
	n.Partners = w.getPartnerMap(sh)
	if m := len(sh.intPool); m > 0 {
		n.partnerIDs = sh.intPool[m-1][:0]
		sh.intPool[m-1] = nil
		sh.intPool = sh.intPool[:m-1]
	}
	if m := len(sh.plistPool); m > 0 {
		n.partnerList = sh.plistPool[m-1][:0]
		sh.plistPool[m-1] = nil
		sh.plistPool = sh.plistPool[:m-1]
	}
	if m := len(sh.demandPool); m > 0 {
		n.allocDemands = sh.demandPool[m-1][:0]
		sh.demandPool[m-1] = nil
		sh.demandPool = sh.demandPool[:m-1]
	}
	if m := len(sh.slotPool); m > 0 {
		n.allocSlots = sh.slotPool[m-1][:0]
		sh.slotPool[m-1] = nil
		sh.slotPool = sh.slotPool[:m-1]
	}
	if m := len(sh.fillerPool); m > 0 {
		n.filler = sh.fillerPool[m-1]
		sh.fillerPool[m-1] = nil
		sh.fillerPool = sh.fillerPool[:m-1]
	} else {
		n.filler = new(netmodel.Filler)
	}
	if m := len(sh.intPool); m > 0 {
		n.candScratch = sh.intPool[m-1][:0]
		sh.intPool[m-1] = nil
		sh.intPool = sh.intPool[:m-1]
	}
	for j := range n.Subs {
		n.Subs[j].Parent = NoParent
		if m := len(sh.intPool); m > 0 {
			n.children[j] = sh.intPool[m-1][:0]
			sh.intPool[m-1] = nil
			sh.intPool = sh.intPool[:m-1]
		}
	}
	n.MCache = w.getMCache(sh, n.rng)
	n.lastReportAt = n.JoinedAt
	w.nodes = append(w.nodes, n)
	// IDs are assigned monotonically, so each shard's sorted active
	// list grows by plain append.
	sh.active = append(sh.active, id)
	if !ep.Server {
		sh.activePeers++
	}
	sh.memberEpoch++
	w.memberEpoch++
	w.touchNode(id)
	return n
}

// nodeLabel renders "node-<id>" into the world's reusable label buffer.
func (w *World) nodeLabel(id int) []byte {
	b := append(w.labelBuf[:0], "node-"...)
	b = strconv.AppendInt(b, int64(id), 10)
	w.labelBuf = b
	return b
}

func (w *World) getPartnerMap(sh *worldShard) map[int]*Partner {
	if m := len(sh.mapPool); m > 0 {
		pm := sh.mapPool[m-1]
		sh.mapPool[m-1] = nil
		sh.mapPool = sh.mapPool[:m-1]
		return pm
	}
	return make(map[int]*Partner)
}

// getMCache reissues a donated membership cache (reset in place, RNG
// stream reseeded from the owner's labeled stream — behaviourally
// identical to a fresh NewMCache) or carves a new one from the shard's
// chunked arenas: the header from mcArena, its MCacheCapacity-slot run
// from mcSlab, one allocation each per nodeChunk sessions. A cache
// keeps its run for life, so recycling through mcPool recycles both.
func (w *World) getMCache(sh *worldShard, rng *xrand.RNG) *gossip.MCache {
	var stream xrand.RNG
	stream.ReseedLabeled(rng, "mcache")
	if m := len(sh.mcPool); m > 0 {
		mc := sh.mcPool[m-1]
		sh.mcPool[m-1] = nil
		sh.mcPool = sh.mcPool[:m-1]
		mc.Reset(stream)
		return mc
	}
	c := w.P.MCacheCapacity
	if len(sh.mcArena) == 0 {
		sh.mcArena = make([]gossip.MCache, nodeChunk)
	}
	if len(sh.mcSlab) < c {
		sh.mcSlab = make([]gossip.Slot, nodeChunk*c)
	}
	mc := &sh.mcArena[0]
	sh.mcArena = sh.mcArena[1:]
	mc.Init(sh.mcSlab[:c], w.Policy, stream)
	sh.mcSlab = sh.mcSlab[c:]
	return mc
}

// removeActive marks a departure for batched removal on the owner
// shard; the next compaction applies the batch (tick boundary, before
// snapshots).
func (w *World) removeActive(id int) {
	n := w.nodes[id]
	sh := w.shardOf(n)
	sh.activeDirty++
	if !n.IsServer() {
		sh.activePeers--
	}
	sh.memberEpoch++
	sh.removed = true
	w.memberEpoch++
}

// AddServer creates one dedicated-server node (the paper's 24×100 Mbps
// tier). Servers sit at the live edge, never play back, never depart,
// and are registered with the bootstrap so newcomers always learn
// about the server tier.
func (w *World) AddServer(uploadBps float64) *Node {
	n := w.newNode(netmodel.Endpoint{
		Class:       netmodel.Direct,
		UploadBps:   uploadBps,
		DownloadBps: uploadBps,
		Server:      true,
	}, -1)
	n.State = StateReady
	live := w.liveEdge(w.Engine.Now())
	for j := range n.Subs {
		n.Subs[j].H = live
	}
	w.servers = append(w.servers, n.ID)
	w.Boot.Join(w.bootEntry(n), w.Engine.Now())
	w.Boot.RegisterServer(n.ID)
	return n
}

func (w *World) bootEntry(n *Node) gossip.Entry {
	in, out := n.PartnerCounts()
	return gossip.Entry{
		ID:           n.ID,
		Class:        n.EP.Class,
		JoinedAt:     n.JoinedAt,
		PartnerCount: in + out,
	}
}

// liveEdge returns the source's per-sub-stream sequence position at t.
func (w *World) liveEdge(t sim.Time) float64 {
	return w.P.Layout.SecondsToSeq(t.Seconds())
}

// Join starts a session for userID with the given endpoint. The user
// intends to watch for `watch`; if the session fails to reach
// media-ready within JoinTimeout the user retries up to `patience`
// more times (Fig. 10b's re-try behaviour). retries carries how many
// failures this user has already had, for the session logs.
func (w *World) Join(userID int, ep netmodel.Endpoint, watch sim.Time, patience, retries int) *Node {
	now := w.Engine.Now()
	n := w.newNode(ep, userID)
	n.State = StateJoining
	n.Retries = retries
	n.watch = watch
	n.patience = patience
	w.JoinedSessions++
	w.Boot.Join(w.bootEntry(n), now)
	w.log(n, logsys.Record{Kind: logsys.KindJoin})

	// Bootstrap round trip delivers the initial candidate list.
	w.Engine.AfterCall(w.P.BootstrapRTT, w.bootstrapFn, sim.EvPayload{A: n.ID})

	// The user's own departure clock. A fraction of users just close
	// the application without teardown.
	crashFlag := 0
	if n.rng.Bool(w.CrashProb) {
		crashFlag = 1
	}
	n.leaveEv = w.Engine.AfterCall(watch, w.leaveFn, sim.EvPayload{A: n.ID, B: crashFlag})

	// Startup failure clock.
	n.timeoutEv = w.Engine.AfterCall(w.P.JoinTimeout, w.timeoutFn, sim.EvPayload{A: n.ID})
	return n
}

// bootstrapFire, leaveFire and timeoutFire are the staged callbacks of
// the three per-join events; operands travel in the payload so the
// join path allocates no closures.
func (w *World) bootstrapFire(p sim.EvPayload) { w.bootstrapReply(w.nodes[p.A]) }

func (w *World) leaveFire(p sim.EvPayload) {
	n := w.nodes[p.A]
	// Drop the handle before acting: fired events are recycled by the
	// engine, so a retained handle must never outlive the fire.
	n.leaveEv = nil
	if p.B != 0 {
		w.departCrash(n, "user")
	} else {
		w.depart(n, "user")
	}
}

func (w *World) timeoutFire(p sim.EvPayload) {
	n := w.nodes[p.A]
	n.timeoutEv = nil
	if n.State == StateJoining || n.State == StateSubscribing {
		w.failSession(n)
	}
}

// retryDelay returns the pause before retry number `attempt` (1-based)
// for the retrying identity `key`: the configured capped-exponential
// backoff with deterministic jitter, or the legacy fixed RetryDelay
// when no backoff is configured.
func (w *World) retryDelay(attempt int, key uint64) sim.Time {
	if w.Retry.Enabled() {
		return w.Retry.Delay(attempt, key^w.retrySalt)
	}
	return w.P.RetryDelay
}

// failSession aborts a session that never reached media-ready and
// schedules the user's retry if patience remains. Successive failures
// by the same user back off exponentially (capped, deterministically
// jittered) when a Retry policy is configured.
func (w *World) failSession(n *Node) {
	w.FailedSessions++
	patience, retries := n.patience, n.Retries
	w.depart(n, "join-timeout")
	if patience > 0 {
		delay := w.retryDelay(retries+1, uint64(n.UserID))
		// The corpse shell keeps the user's identity, endpoint and intent
		// untouched, so the retry re-derives them at fire time and the
		// abandon path allocates no closure.
		w.Engine.AfterCall(delay, w.retryFn, sim.EvPayload{A: n.ID})
	}
}

// retryFire re-enters a user whose session failed before media-ready,
// reading the retry operands off the failed session's shell.
func (w *World) retryFire(p sim.EvPayload) {
	n := w.nodes[p.A]
	w.Join(n.UserID, n.EP, n.watch, n.patience-1, n.Retries+1)
}

// abandonAndRejoin models a frustrated Ready user who departs after a
// badly stalled interval and immediately re-enters (treated by the
// system as a brand-new join, per §V-D).
func (w *World) abandonAndRejoin(n *Node) {
	w.AbandonSessions++
	// Remaining watch time continues to run.
	remaining := n.JoinedAt + n.watch - w.Engine.Now()
	w.depart(n, "stall-reenter")
	if remaining > w.P.RetryDelay {
		w.Engine.AfterCall(w.P.RetryDelay, w.rejoinFn, sim.EvPayload{A: n.ID})
	}
}

// rejoinFire re-enters a frustrated user after the stall-abandon pause.
// The corpse shell's JoinedAt+watch is the absolute intent horizon, so
// the remaining watch time falls out of the fire-time clock — exactly
// remaining-RetryDelay as scheduled.
func (w *World) rejoinFire(p sim.EvPayload) {
	n := w.nodes[p.A]
	w.Join(n.UserID, n.EP, n.JoinedAt+n.watch-w.Engine.Now(), n.patience, n.Retries+1)
}

// depart removes a node gracefully: partners drop it immediately (TCP
// reset semantics), children stall, the bootstrap forgets it, and the
// leave is logged. Safe to call once; later calls are no-ops.
func (w *World) depart(n *Node, reason string) {
	w.departMode(n, reason, true)
}

// departCrash removes a node without notifying anyone: its partners
// keep a dangling entry until the next BM refresh fails, and its
// children's transfers silently freeze until Inequality (1) detects
// the lag — the paper's ungraceful-churn case. The leave is still
// logged (the deployed reporter hooks page unload).
func (w *World) departCrash(n *Node, reason string) {
	w.departMode(n, reason, false)
}

func (w *World) departMode(n *Node, reason string, graceful bool) {
	if n.State == StateDeparted {
		return
	}
	now := w.Engine.Now()
	n.State = StateDeparted
	n.LeftAt = now
	w.Boot.Leave(n.ID)
	w.removeActive(n.ID)
	if ev := n.leaveEv; ev != nil {
		w.Engine.CancelRelease(ev)
		n.leaveEv = nil
	}
	if ev := n.timeoutEv; ev != nil {
		w.Engine.CancelRelease(ev)
		n.timeoutEv = nil
	}
	// Detach from parents. Parents notice a vanished child either way:
	// their TCP send fails at once, so the child registry is cleaned
	// for both graceful and crash departures.
	for j := range n.Subs {
		if p := n.Subs[j].Parent; p != NoParent {
			w.nodes[p].removeChild(j, n.ID)
			w.reclaimCorpseChildren(w.nodes[p])
			n.Subs[j].Parent = NoParent
			n.Subs[j].RateBps = 0
		}
	}
	if graceful {
		sh := w.shardOf(n)
		// Stall children (TCP reset is observed immediately).
		for j := range n.children {
			for _, c := range n.children[j] {
				child := w.nodes[c]
				if child.Subs[j].Parent == n.ID {
					child.Subs[j].Parent = NoParent
					child.Subs[j].RateBps = 0
					w.touchNode(c) // re-subscribe from the next control pass
				}
			}
			if cap(n.children[j]) > 0 {
				sh.intPool = append(sh.intPool, n.children[j][:0])
			}
			n.children[j] = nil
		}
		// Partners drop the link (ascending ID order; the seed ranged
		// over the map, but no randomness is drawn here so the log
		// stream is unchanged).
		for _, pid := range n.partnerIDs {
			w.nodes[pid].delPartner(n.ID)
			w.nodes[pid].partnerChanges++
			w.touchNode(pid) // partner set shrank: recruiting may be due
		}
	}
	// On a crash, children and partner back-pointers stay dangling;
	// refreshBMs and the adaptation inequalities clean them up lazily.
	n.clearPartners()
	// Every forest changes shape at once: the node's own edges are
	// gone (graceful) or frozen out of the active root set (crash).
	w.topo.bumpAll()
	w.log(n, logsys.Record{Kind: logsys.KindLeave, Reason: reason})
	w.reclaimNode(n, graceful)
}

// reclaimNode donates a departed node's heap-heavy internals back to
// the world pools. The Node shell itself stays — post-run analysis
// (digests, session tables, upload-by-class) reads State, Subs, EP and
// the cumulative counters of every session ever created — but nothing
// reads a corpse's partner map, mirrors, mCache or allocator scratch,
// so those backings get reissued to future joiners. A crash corpse
// keeps its children registry: partners that have not yet detected the
// crash still call removeChild on it from refreshBMs teardown.
func (w *World) reclaimNode(n *Node, graceful bool) {
	sh := w.shardOf(n)
	if n.Partners != nil {
		sh.mapPool = append(sh.mapPool, n.Partners)
		n.Partners = nil
	}
	if cap(n.partnerIDs) > 0 {
		sh.intPool = append(sh.intPool, n.partnerIDs[:0])
	}
	n.partnerIDs = nil
	if cap(n.partnerList) > 0 {
		sh.plistPool = append(sh.plistPool, n.partnerList[:0])
	}
	n.partnerList = nil
	if n.MCache != nil {
		sh.mcPool = append(sh.mcPool, n.MCache)
		n.MCache = nil
	}
	if cap(n.allocDemands) > 0 {
		sh.demandPool = append(sh.demandPool, n.allocDemands[:0])
		n.allocDemands = nil
	}
	if cap(n.allocSlots) > 0 {
		sh.slotPool = append(sh.slotPool, n.allocSlots[:0])
		n.allocSlots = nil
	}
	if cap(n.candScratch) > 0 {
		sh.intPool = append(sh.intPool, n.candScratch[:0])
		n.candScratch = nil
	}
	if n.filler != nil {
		n.filler.Invalidate()
		sh.fillerPool = append(sh.fillerPool, n.filler)
		n.filler = nil
	}
	_ = graceful // children backings were donated in the graceful teardown above
}

// reclaimCorpseChildren donates a crash corpse's children backings once
// the last dangling child reference is gone. A crash corpse keeps its
// registry alive after reclaimNode because surviving children still
// call removeChild on it as they detect the crash (failed BM exchange,
// Inequality (1) lag, or their own departure); the caller invokes this
// after each such detachment, and the donation happens exactly once —
// when every sub-stream's child list has emptied.
func (w *World) reclaimCorpseChildren(p *Node) {
	if p.State != StateDeparted {
		return
	}
	for j := range p.children {
		if len(p.children[j]) != 0 {
			return
		}
	}
	sh := w.shardOf(p)
	for j := range p.children {
		if cap(p.children[j]) > 0 {
			sh.intPool = append(sh.intPool, p.children[j][:0])
		}
		p.children[j] = nil
	}
}

// DepartAllPeers removes every active non-server peer at once — the
// program-end event: when a broadcast finishes, its audience leaves
// together (Fig. 5b's 22:00 cliff at channel granularity).
func (w *World) DepartAllPeers(reason string) int {
	ids := append([]int(nil), w.activeView()...)
	n := 0
	for _, id := range ids {
		node := w.nodes[id]
		if node.IsServer() || node.State == StateDeparted {
			continue
		}
		w.depart(node, reason)
		n++
	}
	return n
}

// bootstrapReply fills the joiner's mCache with the bootstrap's
// candidate list and starts partner recruitment. During a tracker
// outage the contact fails: the node's next re-contact (driven by
// maintainPartners) is pushed out by the capped backoff, attempt by
// attempt, until the tracker answers again.
func (w *World) bootstrapReply(n *Node) {
	if n.State == StateDeparted {
		return
	}
	now := w.Engine.Now()
	if w.Faults != nil && w.Faults.TrackerDown(now) {
		w.Faults.Stats.TrackerRefusals++
		n.bootAttempts++
		n.recruitingDue = now + w.retryDelay(n.bootAttempts, uint64(n.ID))
		return
	}
	n.bootAttempts = 0
	for _, e := range w.Boot.Candidates(n.ID, w.P.BootstrapCandidates) {
		n.MCache.Insert(e, now)
	}
	// Event time is a sequential phase: recruit through the shard's
	// visit context like a control visit would, and commit the
	// handshake effects at once instead of at the next barrier.
	sh := w.shardOf(n)
	sh.vc.beginVisit(n)
	w.recruit(&sh.vc, n)
	w.commitEventEffects(sh)
}

// recruit attempts partnership establishment towards mCache samples
// until the desired partner count is reached.
func (w *World) recruit(vc *vctx, n *Node) {
	if n.State == StateDeparted {
		return
	}
	want := w.P.DesiredPartners - len(n.Partners)
	if want <= 0 {
		return
	}
	// The sorted partner-ID slice doubles as the exclusion set — no
	// per-call map needed — and the sample lands in a stack buffer that
	// covers the Table I partner bound (a larger want spills to the
	// heap, nothing else changes).
	var buf [8]gossip.Entry
	for _, e := range n.MCache.Sample(buf[:0], want, n.ID, n.partnerIDs) {
		w.attemptPartnership(vc, n, e.ID)
	}
}

// attemptPartnership models the TCP partnership handshake with the
// latency model and the NAT/firewall reachability rules. With faults
// enabled, attempts involving a NAT-class endpoint are refused with
// the scheduled probability before the handshake is even sent (the
// paper's NAT-blocked connections). All RNG draws use n's own stream
// and the reads are frozen state (EP classes, the latency hash), so
// the attempt runs safely inside a parallel visit — only the engine
// event and the shared fault counter defer.
func (w *World) attemptPartnership(vc *vctx, n *Node, targetID int) {
	if w.Faults != nil && w.Faults.Cfg.NATRefusalProb > 0 {
		target := w.Node(targetID)
		natSide := n.EP.Class == netmodel.NAT ||
			(target != nil && target.EP.Class == netmodel.NAT)
		if natSide && n.rng.Bool(w.Faults.Cfg.NATRefusalProb) {
			vc.sh.natRefusals++
			n.MCache.Remove(targetID)
			return
		}
	}
	rtt := 2 * w.Latency.Delay(n.ID, targetID)
	u := n.rng.Float64() // drawn now so event ordering cannot disturb streams
	if w.P.ControlLossProb > 0 && n.rng.Bool(w.P.ControlLossProb) {
		// Handshake lost in flight; the peer retries through the
		// normal recruiting cadence.
		return
	}
	vc.emit(effSchedule, 2, int32(targetID), rtt, u)
}

// completePartnership finishes the handshake one RTT after the attempt:
// payload A is the initiator, B the target, F the reachability draw.
func (w *World) completePartnership(p sim.EvPayload) {
	n := w.nodes[p.A]
	targetID := p.B
	target := w.Node(targetID)
	if n.State == StateDeparted {
		return
	}
	if target == nil || target.State == StateDeparted {
		n.MCache.Remove(targetID)
		return
	}
	if _, dup := n.Partners[targetID]; dup {
		return
	}
	bound := w.P.MaxPartners
	if target.IsServer() {
		bound = w.P.MaxServerPartners
	}
	if len(target.Partners) >= bound || len(n.Partners) >= w.P.MaxPartners {
		return
	}
	if !w.Reach.Attempt(n.EP.Class, target.EP.Class, p.F) {
		n.MCache.Remove(targetID)
		return
	}
	now := w.Engine.Now()
	// Partner structs come from each side's own shard pool with their
	// buffer-map backing; fillBufferMap resets the contents to exactly
	// what a fresh BufferMap() would hold.
	po := n.pool.get()
	po.Outgoing = true
	target.fillBufferMap(&po.BM, n.ID)
	po.BMAt = now
	po.EstablishedAt = now
	n.setPartner(targetID, po)
	pi := target.pool.get()
	pi.Outgoing = false
	n.fillBufferMap(&pi.BM, targetID)
	pi.BMAt = now
	pi.EstablishedAt = now
	target.setPartner(n.ID, pi)
	n.partnerChanges++
	target.partnerChanges++
	// Membership gossip piggybacks on establishment.
	target.MCache.Insert(w.bootEntry(n), now)
	n.MCache.Insert(w.bootEntry(target), now)
	// Fresh partnerships change both ends' control outlook (gossip
	// becomes possible, recruiting may stand down, BMs just landed).
	w.touchNode(n.ID)
	w.touchNode(targetID)
}

// log emits a record for the node, filling identity fields.
func (w *World) log(n *Node, rec logsys.Record) {
	if n.IsServer() {
		return // the server tier does not report; it is infrastructure
	}
	w.fill(n, &rec)
	w.Sink.Log(rec)
}

// logLane emits a record into a per-shard lane with no locking; only
// parallel phases holding exclusive shard lanes use it.
func (w *World) logLane(lane *logsys.Lane, n *Node, rec logsys.Record) {
	if n.IsServer() {
		return
	}
	w.fill(n, &rec)
	lane.Log(rec)
}

func (w *World) fill(n *Node, rec *logsys.Record) {
	rec.At = w.Engine.Now()
	rec.Peer = n.ID
	rec.Session = n.Session
	rec.User = n.UserID
	rec.PrivateAddr = n.EP.Class.HasPrivateAddress()
	rec.TrueClass = n.EP.Class
	rec.HasTruth = true
}

// ensureLanes grows the per-shard lane table to at least the number of
// shards the next parallel phase can produce. Called sequentially from
// tick, so the parallel phases only ever read laneSinks.
func (w *World) ensureLanes(workers int) {
	for len(w.laneSinks) < workers {
		w.laneSinks = append(w.laneSinks, w.sharded.Lane(len(w.laneSinks)))
	}
}
