package peer

import (
	"runtime"
	"sort"
	"testing"

	"coolstream/internal/gossip"
	"coolstream/internal/logsys"
	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
)

// setShards returns a world mutator configuring n shards.
func setShards(t *testing.T, n int) func(*World) {
	return func(w *World) {
		if err := w.SetShards(n); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedDigestInvariant is the tentpole determinism property: the
// control engine must produce one digest — the pinned golden — for
// every shard count and every GOMAXPROCS, over shards ∈ {1, 2, 4, 8,
// 16} × GOMAXPROCS ∈ {1, 8}.
func TestShardedDigestInvariant(t *testing.T) {
	orig := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 4, 8, 16} {
			if got := digestScenario(t, 0, setShards(t, shards)); got != goldenRunDigest {
				t.Fatalf("shards=%d GOMAXPROCS=%d: digest %#x != golden %#x",
					shards, procs, got, goldenRunDigest)
			}
		}
	}
}

// TestShardedDigestInvariantWithControlLoss repeats the invariant with
// lossy control messaging: ControlLossProb > 0 makes every BM refresh
// draw from the node RNG, so any divergence in visit order or count
// shows up immediately.
func TestShardedDigestInvariantWithControlLoss(t *testing.T) {
	base := digestScenario(t, 0.2, setShards(t, 1))
	for _, shards := range []int{2, 8} {
		if got := digestScenario(t, 0.2, setShards(t, shards)); got != base {
			t.Fatalf("shards=%d: lossy digest %#x != %#x", shards, got, base)
		}
	}
}

// TestShardedChaosDigestInvariant runs the adversarial fault scenario
// (tracker outage, NAT refusals, partner kills, burst loss, control
// loss) across shard counts and parallelism levels: fault-phase kills
// and event-time recruiting apply their effects on the spot, so their
// damage must be identical under any partition.
func TestShardedChaosDigestInvariant(t *testing.T) {
	orig := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(orig)
	for _, seed := range []uint64{7, 4242} {
		base, _ := schedScenario(t, seed, setShards(t, 1))
		for _, procs := range []int{1, 8} {
			runtime.GOMAXPROCS(procs)
			for _, shards := range []int{2, 4, 16} {
				got, _ := schedScenario(t, seed, setShards(t, shards))
				if got != base {
					t.Fatalf("seed=%d shards=%d GOMAXPROCS=%d: chaos digest %#x != %#x",
						seed, shards, procs, got, base)
				}
			}
		}
		t.Logf("seed %d: chaos digest %#x invariant across shards and GOMAXPROCS", seed, base)
	}
}

// TestShardAssignmentStable pins the migration-free ownership contract:
// after a full churn scenario every node — live or departed — still
// hashes to the shard that owns it, every shard's active list holds
// only its own live nodes in ascending order, and the O(shards)
// aggregate counters agree with a full recount.
func TestShardAssignmentStable(t *testing.T) {
	const shards = 4
	_, w := schedScenario(t, 4242, setShards(t, shards))
	if w.NumShards() != shards {
		t.Fatalf("NumShards = %d, want %d", w.NumShards(), shards)
	}
	for _, n := range w.Nodes() {
		if n == nil {
			continue
		}
		if want := shardIndex(n.ID, shards); int(n.shard) != want {
			t.Fatalf("node %d on shard %d, hash says %d", n.ID, n.shard, want)
		}
	}
	w.compactAllActive()
	total, peers := 0, 0
	for si, sh := range w.shards {
		prev := -1
		for _, id := range sh.active {
			n := w.nodes[id]
			if int(n.shard) != si {
				t.Fatalf("shard %d active list holds node %d owned by shard %d", si, id, n.shard)
			}
			if n.State == StateDeparted {
				t.Fatalf("shard %d active list holds departed node %d after compaction", si, id)
			}
			if id <= prev {
				t.Fatalf("shard %d active list out of order: %d after %d", si, id, prev)
			}
			prev = id
			total++
			if !n.IsServer() {
				peers++
			}
		}
	}
	if got := w.ActiveCount(); got != total {
		t.Fatalf("ActiveCount = %d, recount = %d", got, total)
	}
	if got := w.ActivePeerCount(); got != peers {
		t.Fatalf("ActivePeerCount = %d, recount = %d", got, peers)
	}
	if ids := w.activeView(); len(ids) != total {
		t.Fatalf("activeView has %d IDs, recount = %d", len(ids), total)
	}
}

// TestShardedInvariantsUnderChurn drives a sharded world through joins,
// watch-time departures and a program-end cliff, checking the full
// structural invariant suite (forest consistency, symmetric
// partnerships, membership lists) at every step, and the aggregate
// counters against a recount each tick.
func TestShardedInvariantsUnderChurn(t *testing.T) {
	p := DefaultParams()
	p.ReportPeriod = 30 * sim.Second
	engine := sim.NewEngine(sim.Second)
	sink := &logsys.MemorySink{}
	w, err := NewWorld(p, engine, sink, netmodel.ConstantLatency{D: 50 * sim.Millisecond},
		gossip.RandomReplace{}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetShards(4); err != nil {
		t.Fatal(err)
	}
	w.AddServer(15 * testRate)
	w.AddServer(15 * testRate)
	engine.Run(10 * sim.Second)
	prof := netmodel.DefaultCapacityProfile(testRate)
	rng := w.rng.SplitLabeled("churn")
	for i := 0; i < 60; i++ {
		i := i
		at := 10*sim.Second + sim.Time(i)*2*sim.Second
		engine.Schedule(at, func() {
			class := netmodel.UserClass(i % 4)
			watch := sim.Time(20+(i*17)%120) * sim.Second
			w.Join(600+i, prof.Draw(class, rng), watch, 1, 0)
		})
	}
	for step := 0; step < 24; step++ {
		engine.Run(engine.Now() + 10*sim.Second)
		checkInvariants(t, w)
		peers := 0
		for _, id := range w.activeView() {
			if !w.nodes[id].IsServer() {
				peers++
			}
		}
		if got := w.ActivePeerCount(); got != peers {
			t.Fatalf("step %d: ActivePeerCount = %d, recount = %d", step, got, peers)
		}
	}
	w.DepartAllPeers("program-end")
	engine.Run(engine.Now() + 5*sim.Second)
	checkInvariants(t, w)
	if got := w.ActivePeerCount(); got != 0 {
		t.Fatalf("ActivePeerCount = %d after cliff, want 0", got)
	}
}

// TestDrainTargetOrderIsCanonicalRestriction pins the commit-order
// contract of the target-sharded drain (DESIGN.md §13): each target
// shard applies its routed inbox in exactly the global canonical
// (src, seq) order restricted to the targets it owns. The oracle is
// deliberately not another k-way merge: at the visit/drain barrier of
// every tick it gathers every routed effect from every source shard's
// outPar queues, sorts the whole set with one global (src, seq) sort,
// and restricts it per target shard. The per-shard drain logs — in
// actual apply order — must replay those restrictions exactly, over a
// full chaos scenario (crashes, control loss, churn).
func TestDrainTargetOrderIsCanonicalRestriction(t *testing.T) {
	const shards = 8
	var expected [][][2]int32
	arm := func(w *World) {
		if err := w.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		w.drainLogOn = true
		expected = make([][][2]int32, shards)
		w.testBarrierHook = func() {
			type routed struct {
				src, seq int32
				tgt      int
			}
			var all []routed
			for _, s := range w.shards {
				for ti, q := range s.outPar {
					for _, e := range q {
						all = append(all, routed{e.src, e.seq, ti})
					}
				}
			}
			// (src, seq) pairs are globally unique — seq is monotone per
			// source shard and a src belongs to exactly one shard — so an
			// unstable sort yields one well-defined canonical order.
			sort.Slice(all, func(i, j int) bool {
				return all[i].src < all[j].src ||
					(all[i].src == all[j].src && all[i].seq < all[j].seq)
			})
			for _, e := range all {
				expected[e.tgt] = append(expected[e.tgt], [2]int32{e.src, e.seq})
			}
		}
	}
	_, w := schedScenario(t, 7, arm)
	total := 0
	for si, sh := range w.shards {
		want := expected[si]
		if len(sh.drainLog) != len(want) {
			t.Fatalf("shard %d applied %d routed effects, canonical restriction has %d",
				si, len(sh.drainLog), len(want))
		}
		for i := range want {
			if sh.drainLog[i] != want[i] {
				t.Fatalf("shard %d effect %d: applied (src=%d seq=%d), canonical (src=%d seq=%d)",
					si, i, sh.drainLog[i][0], sh.drainLog[i][1], want[i][0], want[i][1])
			}
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("chaos scenario routed no effects — property test is vacuous")
	}
}

// TestSetShardsGuards pins the configuration contract: out-of-range
// counts and populated worlds are rejected.
func TestSetShardsGuards(t *testing.T) {
	p := DefaultParams()
	engine := sim.NewEngine(sim.Second)
	w, err := NewWorld(p, engine, &logsys.MemorySink{},
		netmodel.ConstantLatency{D: 50 * sim.Millisecond}, gossip.RandomReplace{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetShards(maxShards + 1); err == nil {
		t.Fatal("SetShards above the cap must fail")
	}
	if err := w.SetShards(2); err != nil {
		t.Fatal(err)
	}
	w.AddServer(15 * testRate)
	if err := w.SetShards(4); err == nil {
		t.Fatal("SetShards on a populated world must fail")
	}
}
