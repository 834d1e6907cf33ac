package peer

import (
	"fmt"

	"coolstream/internal/gossip"
	"coolstream/internal/logsys"
	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
)

// The world is partitioned into per-core *world shards*. Each shard
// owns a disjoint subset of the nodes — assigned by a stable hash of
// the node ID, so a node's shard never changes during its lifetime —
// together with everything those nodes need that must not be shared
// across cores: the membership list, the due-wheel of the control
// scheduler, the node-shell arenas and free lists, the control-phase
// log lane, the effect outbox and the per-shard counters.
//
// The control phase is the deferred-effect engine (see effects.go and
// DESIGN.md §11): shards visit their due nodes in parallel, cross-node
// mutations are queued as effects, and the tick barrier applies them
// in a canonical order that is independent of both the shard count and
// GOMAXPROCS. With one shard (the default) every structure lives on
// shards[0] and the same engine runs with nshards == 1 — the shard
// count is a performance setting, never a behaviour switch.
type worldShard struct {
	idx int

	// Membership. active holds the shard's sorted active node IDs
	// (IDs are assigned monotonically and the shard hash is stable, so
	// joins append in O(1)); departures mark the list dirty and the
	// next compaction applies the batch in one pass.
	active      []int
	activeDirty int
	// activePeers counts the shard's active non-server peers; the
	// world-level ActivePeerCount is the O(shards) sum.
	activePeers int

	// Due-driven control scheduling (see sched.go): the shard owns its
	// wheel and drain scratch, so the sharded control phase drains,
	// visits and re-arms with no shared mutable state.
	wheel    *sim.Wheel
	wheelBuf []int32
	dueIDs   []int32

	// Node-shell recycling arenas and free lists — one instance per
	// shard, so parallel control visits and the drain recycle without
	// locks. A node only ever donates to and draws from its own
	// shard's pools.
	nodeArena  []Node
	subArena   []Subscription
	childArena [][]int
	hotArena   []nodeHot
	mcArena    []gossip.MCache
	mcSlab     []gossip.Slot
	mapPool    []map[int]*Partner
	intPool    [][]int
	plistPool  [][]*Partner
	mcPool     []*gossip.MCache
	demandPool [][]netmodel.Demand
	slotPool   [][]allocSlot
	fillerPool []*netmodel.Filler
	ppool      partnerPool

	// Control state: the shard's visit context, the residue
	// effect outbox (drained sequentially in canonical (src, seq) order
	// at the barrier), the target-routed queues of the parallel drain
	// passes and the shard's record lane for control-phase log records.
	vc     vctx
	outbox []effect
	effSeq int32
	// outPar[t] holds effects this shard emitted whose target node
	// lives on shard t; shard t alone applies them in the parallel
	// target pass. gossipOut[s] holds the gossip replies this shard
	// produced (as a target) for source nodes owned by shard s; shard s
	// alone consumes them in the source pass. mergeCur is the shard's
	// private cursor scratch for those k-way merges, and drainLog
	// captures the applied (src, seq) order when the property-test hook
	// is armed.
	outPar    [][]effect
	gossipOut [][]gossipReply
	mergeCur  []int
	drainLog  [][2]int32
	recBuf    []logsys.Record

	// memberEpoch counts this shard's membership changes and removed
	// marks that at least one of them was a departure, not a join —
	// the dirty-shard state of the incremental mergedActive rebuild.
	memberEpoch uint64
	removed     bool

	// Per-tick counters, folded into the world totals at the barrier
	// so parallel visits never touch shared counters.
	visits      int64
	ready       int
	adapts      int
	natRefusals int

	// Cumulative per-shard statistics for the coolbench imbalance
	// table (never reset).
	visitsTotal int64
	controlNs   int64
	bmRefreshes int64
	effTotal    int64
}

// maxShards bounds the shard count; far above any core count this
// engine targets, it only guards against nonsense configuration.
const maxShards = 256

// shardIndex is the stable node→shard hash. It depends only on the
// node ID and the shard count, so a node's shard is fixed for its
// whole lifetime and independent of join order, GOMAXPROCS or any
// runtime state. SplitMix64-style finalisation spreads consecutive
// IDs across shards.
func shardIndex(id, nshards int) int {
	if nshards <= 1 {
		return 0
	}
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(nshards))
}

func (w *World) newShard(idx int) *worldShard {
	sh := &worldShard{idx: idx}
	sh.wheel = sim.NewWheel(w.Engine.TickPeriod(), 512, w.Engine.Now())
	k := w.P.Layout.K
	sh.vc = vctx{
		w:       w,
		sh:      sh,
		pendPar: make([]int, k),
		pendSet: make([]bool, k),
	}
	return sh
}

// SetShards partitions the world into n per-core shards. Must be
// called on an empty world, before AddServer or Join — the shard of a
// node is decided at creation and never migrates. n = 1 is the
// NewWorld default.
func (w *World) SetShards(n int) error {
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		return fmt.Errorf("peer: %d shards exceeds the %d-shard cap", n, maxShards)
	}
	if len(w.nodes) > 0 || w.sessions > 0 {
		return fmt.Errorf("peer: SetShards(%d) on a populated world", n)
	}
	for len(w.shards) < n {
		w.shards = append(w.shards, w.newShard(len(w.shards)))
	}
	w.shards = w.shards[:n]
	w.nshards = n
	if cap(w.effCur) < n {
		w.effCur = make([]int, n)
	}
	return nil
}

// NumShards returns the configured world-shard count.
func (w *World) NumShards() int { return w.nshards }

// shardOf returns the shard owning node n.
func (w *World) shardOf(n *Node) *worldShard { return w.shards[n.shard] }

// compactAllActive settles batched departures on every shard.
func (w *World) compactAllActive() {
	for _, sh := range w.shards {
		w.compactShard(sh)
	}
}

// compactShard drops departed IDs from one shard's active list in one
// pass.
func (w *World) compactShard(sh *worldShard) {
	if sh.activeDirty == 0 {
		return
	}
	dst := sh.active[:0]
	for _, id := range sh.active {
		if w.nodes[id].State != StateDeparted {
			dst = append(dst, id)
		}
	}
	sh.active = dst
	sh.activeDirty = 0
}

// mergedActive returns the sorted union of every shard's active list.
// With one shard it aliases the shard's own list — no copy, so the
// small-world fast path costs exactly what the pre-shard engine did.
// With several shards the rebuild is incremental per dirty shard:
// join-only changes merge just the dirty shards' appended suffixes
// onto the cached tail (node IDs are assigned monotonically, so every
// ID appended since the last merge exceeds every cached ID), and
// departures re-merge only the dirty shards' lists against the cached
// list with the dirty shards' old entries filtered out. Clean shards
// are never re-read, so a single join or depart no longer pays a full
// k-way re-merge of all shards. Callers settle departures
// (compactAllActive) before merging, as before.
func (w *World) mergedActive() []int {
	if w.nshards == 1 {
		return w.shards[0].active
	}
	if w.memberEpoch == w.mergedEpoch && w.mergedIDs != nil {
		return w.mergedIDs
	}
	if w.mergedIDs == nil || len(w.mergedShardEpochs) != len(w.shards) {
		return w.rebuildMergedFull()
	}
	dirty := w.dirtyScratch[:0]
	removed := false
	for i, sh := range w.shards {
		if sh.memberEpoch != w.mergedShardEpochs[i] {
			dirty = append(dirty, i)
			if sh.removed {
				removed = true
			}
		}
	}
	w.dirtyScratch = dirty
	if len(dirty) == 0 {
		w.mergedEpoch = w.memberEpoch
		return w.mergedIDs
	}
	cur := w.effCur[:len(dirty)]
	if !removed {
		// Append-only fast path: d-way merge of the dirty shards'
		// suffixes, appended to the cached list.
		for i, si := range dirty {
			cur[i] = w.mergedShardLens[si]
		}
		out := w.mergedIDs
		for {
			best, bestID := -1, 0
			for i, si := range dirty {
				a := w.shards[si].active
				if cur[i] < len(a) {
					if id := a[cur[i]]; best < 0 || id < bestID {
						best, bestID = i, id
					}
				}
			}
			if best < 0 {
				break
			}
			out = append(out, bestID)
			cur[best]++
		}
		w.mergedIDs = out
		w.noteMerged()
		return out
	}
	// Departure path: drop the dirty shards' old entries from the
	// cached list and two-way merge it with the d-way merge of the
	// dirty shards' (compacted) lists, into the double buffer.
	mark := w.dirtyMark
	for len(mark) < len(w.shards) {
		mark = append(mark, false)
	}
	w.dirtyMark = mark
	for _, si := range dirty {
		mark[si] = true
	}
	for i := range cur {
		cur[i] = 0
	}
	out := w.mergedScratch[:0]
	old := w.mergedIDs
	oi := 0
	for {
		for oi < len(old) && mark[w.nodes[old[oi]].shard] {
			oi++
		}
		best, bestID := -1, 0
		for i, si := range dirty {
			a := w.shards[si].active
			if cur[i] < len(a) {
				if id := a[cur[i]]; best < 0 || id < bestID {
					best, bestID = i, id
				}
			}
		}
		if oi >= len(old) && best < 0 {
			break
		}
		if best < 0 || (oi < len(old) && old[oi] < bestID) {
			out = append(out, old[oi])
			oi++
		} else {
			out = append(out, bestID)
			cur[best]++
		}
	}
	for _, si := range dirty {
		mark[si] = false
	}
	w.mergedScratch = w.mergedIDs[:0]
	w.mergedIDs = out
	w.noteMerged()
	return out
}

// rebuildMergedFull is the from-scratch k-way merge — first use and
// shard-count growth only.
func (w *World) rebuildMergedFull() []int {
	out := w.mergedIDs[:0]
	cur := w.effCur[:len(w.shards)]
	for i := range cur {
		cur[i] = 0
	}
	for {
		best, bestID := -1, 0
		for i, sh := range w.shards {
			if cur[i] < len(sh.active) {
				if id := sh.active[cur[i]]; best < 0 || id < bestID {
					best, bestID = i, id
				}
			}
		}
		if best < 0 {
			break
		}
		out = append(out, bestID)
		cur[best]++
	}
	w.mergedIDs = out
	w.noteMerged()
	return out
}

// noteMerged records the per-shard membership state the cached merge
// reflects and clears the dirty flags.
func (w *World) noteMerged() {
	for len(w.mergedShardEpochs) < len(w.shards) {
		w.mergedShardEpochs = append(w.mergedShardEpochs, 0)
	}
	for len(w.mergedShardLens) < len(w.shards) {
		w.mergedShardLens = append(w.mergedShardLens, 0)
	}
	for i, sh := range w.shards {
		w.mergedShardEpochs[i] = sh.memberEpoch
		w.mergedShardLens[i] = len(sh.active)
		sh.removed = false
	}
	w.mergedEpoch = w.memberEpoch
}

// activeView settles departures on every shard and returns the merged
// sorted active-ID list — the membership read used by snapshots,
// bulk-departure sweeps and tests.
func (w *World) activeView() []int {
	w.compactAllActive()
	return w.mergedActive()
}

// ShardStat is one shard's cumulative control-plane statistics,
// exposed for the coolbench per-shard imbalance table.
type ShardStat struct {
	Shard       int
	ActivePeers int
	Visits      int64
	ControlNs   int64
	BMRefreshes int64
	Effects     int64
}

// ShardStats returns cumulative per-shard statistics.
func (w *World) ShardStats() []ShardStat {
	out := make([]ShardStat, len(w.shards))
	for i, sh := range w.shards {
		out[i] = ShardStat{
			Shard:       i,
			ActivePeers: sh.activePeers,
			Visits:      sh.visitsTotal,
			ControlNs:   sh.controlNs,
			BMRefreshes: sh.bmRefreshes,
			Effects:     sh.effTotal,
		}
	}
	return out
}

// PhaseNanos accumulates per-phase wall time when MeterPhases is on.
type PhaseNanos struct {
	Allocate int64
	Advance  int64
	Playback int64
	Account  int64
	Control  int64
	// Drain is the parallel half of the control barrier: the
	// per-target-shard effect pass and the per-source-shard gossip
	// reply pass.
	Drain int64
	// Merge is the sequential tail of the control barrier:
	// record-lane flush, residue effect drain and counter folds.
	Merge int64
}

// MeterPhases enables wall-clock metering of every tick phase
// (allocate/advance/playback/account/control, with the barrier's
// drain and merge split out). Implies MeterControl.
func (w *World) MeterPhases(on bool) {
	w.phaseClock = on
	if on {
		w.controlClock = true
	}
}

// LabelPhases wraps every tick-phase worker in a runtime/pprof label
// (phase=allocate/advance/playback/control/drain/merge) so a CPU
// profile splits by phase: `go tool pprof -tagfocus phase=advance`.
// Off by default — the label push/pop costs a context allocation per
// worker call, so it is only worth paying under -cpuprofile.
func (w *World) LabelPhases(on bool) { w.labelPhases = on }

// PhaseStats returns the accumulated per-phase wall times.
func (w *World) PhaseStats() PhaseNanos {
	p := w.Phases
	p.Control = w.ControlNanos
	return p
}
