package peer

import (
	"reflect"
	"runtime"
	"testing"

	"coolstream/internal/faults"
	"coolstream/internal/gossip"
	"coolstream/internal/logsys"
	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
)

// schedScenario runs the mixed-churn digest scenario with every fault
// class active (tracker outage, NAT refusals, partner kills, burst
// loss) plus control loss, and returns the digest and the final world.
// This is the adversarial workload for the due-wheel equivalence
// property: it exercises every touch point — partnership completion,
// severed links, graceful and crash departures, stall abandons, the
// program-end cliff. Optional mut hooks run on the fresh world before
// any server or peer joins (the SetShards window).
func schedScenario(t *testing.T, seed uint64, mut ...func(*World)) (uint64, *World) {
	t.Helper()
	p := DefaultParams()
	p.ReportPeriod = 30 * sim.Second
	p.ControlLossProb = 0.1
	engine := sim.NewEngine(sim.Second)
	sink := &logsys.MemorySink{}
	w, err := NewWorld(p, engine, sink, netmodel.ConstantLatency{D: 50 * sim.Millisecond},
		gossip.RandomReplace{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mut {
		m(w)
	}
	sch, err := faults.NewSchedule(faults.Config{
		TrackerOutages:  []faults.Window{{Start: 60 * sim.Second, End: 90 * sim.Second}},
		NATRefusalProb:  0.3,
		PartnerKillRate: 0.5,
		BurstLoss: []faults.LossWindow{
			{Window: faults.Window{Start: 2 * sim.Minute, End: 150 * sim.Second}, Frac: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Faults = sch
	w.Retry = faults.Backoff{Base: 2 * sim.Second, Cap: 20 * sim.Second, JitterFrac: 0.5}
	w.AddServer(15 * testRate)
	w.AddServer(15 * testRate)
	engine.Run(30 * sim.Second)
	prof := netmodel.DefaultCapacityProfile(testRate)
	rng := w.rng.SplitLabeled("digest")
	for i := 0; i < 80; i++ {
		i := i
		at := 30*sim.Second + sim.Time(i%40)*2*sim.Second
		engine.Schedule(at, func() {
			class := netmodel.UserClass(i % 4)
			watch := sim.Time(30+(i*13)%200) * sim.Second
			w.Join(600+i, prof.Draw(class, rng), watch, 1, 0)
		})
	}
	engine.Run(4 * sim.Minute)
	w.DepartAllPeers("program-end")
	engine.Run(engine.Now() + 10*sim.Second)
	return worldDigest(w, sink.Records()), w
}

// nodeProjection is the mode-independent view of a node's final state:
// everything observable by the protocol, excluding the wheel's private
// bookkeeping (adaptDue, wheelAt) and the recycled-storage pointers.
type nodeProjection struct {
	ID, UserID, Session int
	State               State
	JoinedAt, ReadyAt   sim.Time
	StartSubAt, LeftAt  sim.Time
	Retries             int
	Subs                []Subscription
	PartnerIDs          []int
	BMDue               sim.Time
	LastGossipAt        sim.Time
	LastReportAt        sim.Time
	LastAdaptAt         sim.Time
	RecruitingDue       sim.Time
	CumUp, CumDown      float64
	Missed, Total       float64
	PlayDeadline        float64
	StartPos            float64
	PartnerChanges      int
	MCacheIDs           []int
}

func projectNode(n *Node) nodeProjection {
	pr := nodeProjection{
		ID: n.ID, UserID: n.UserID, Session: n.Session,
		State:    n.State,
		JoinedAt: n.JoinedAt, ReadyAt: n.ReadyAt,
		StartSubAt: n.StartSubAt, LeftAt: n.LeftAt,
		Retries:       n.Retries,
		Subs:          append([]Subscription(nil), n.Subs...),
		PartnerIDs:    append([]int(nil), n.partnerIDs...),
		BMDue:         n.bmDue,
		LastGossipAt:  n.lastGossipAt,
		LastReportAt:  n.lastReportAt,
		LastAdaptAt:   n.lastAdaptAt,
		RecruitingDue: n.recruitingDue,
		CumUp:         n.CumUploadB, CumDown: n.CumDownloadB,
		Missed: n.hot.missedBlocks, Total: n.hot.totalBlocks,
		PlayDeadline:   n.hot.playDeadline,
		StartPos:       n.startPos,
		PartnerChanges: n.partnerChanges,
	}
	if n.MCache != nil {
		for _, e := range n.MCache.Snapshot() {
			pr.MCacheIDs = append(pr.MCacheIDs, e.ID)
		}
	}
	return pr
}

// visitAll turns a fresh world into the conservative-visit oracle: at
// the end of every tick it puts every active peer on its shard's wheel
// for the next tick and zeroes adaptDue, so each tick visits the whole
// population and evaluates §IV-B unconditionally — the O(population)
// sweep the due wheel replaces. It registers after NewWorld's own tick
// callback, so it runs once the tick has settled; peers that join
// before the next tick are touched by newNode as always.
func visitAll(w *World) {
	w.Engine.OnTick(func(_, now sim.Time) {
		for _, id := range w.activeView() {
			n := w.nodes[id]
			if n.IsServer() {
				continue
			}
			n.adaptDue = 0
			w.wheelSchedule(w.shards[n.shard], n, now)
		}
	})
}

// TestWheelMatchesFullSweep is the core equivalence property of the
// due-driven control plane: under adversarial churn and faults, a run
// driven by the wheel must be bit-identical to one that visits every
// active node every tick — same digest (all log records plus final
// fluid state) and deep-equal per-node protocol state — across seeds,
// while doing strictly less work.
func TestWheelMatchesFullSweep(t *testing.T) {
	for _, seed := range []uint64{7, 101, 4242} {
		dWheel, wWheel := schedScenario(t, seed)
		dSweep, wSweep := schedScenario(t, seed, visitAll)
		if dWheel != dSweep {
			t.Fatalf("seed %d: wheel digest %#x != visit-all digest %#x", seed, dWheel, dSweep)
		}
		if len(wWheel.Nodes()) != len(wSweep.Nodes()) {
			t.Fatalf("seed %d: node counts differ: %d vs %d",
				seed, len(wWheel.Nodes()), len(wSweep.Nodes()))
		}
		for i, n := range wWheel.Nodes() {
			a, b := projectNode(n), projectNode(wSweep.Nodes()[i])
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: node %d state diverged:\nwheel: %+v\nsweep: %+v", seed, i, a, b)
			}
		}
		if wWheel.Adaptations != wSweep.Adaptations ||
			wWheel.ReadySessions != wSweep.ReadySessions ||
			wWheel.AbandonSessions != wSweep.AbandonSessions ||
			wWheel.FailedSessions != wSweep.FailedSessions {
			t.Fatalf("seed %d: world counters diverged", seed)
		}
		if wWheel.ControlVisits >= wSweep.ControlVisits {
			t.Fatalf("seed %d: wheel made %d visits, visit-all %d — the oracle is not visiting everyone",
				seed, wWheel.ControlVisits, wSweep.ControlVisits)
		}
		t.Logf("seed %d: wheel == visit-all, digest %#x, visits %d vs %d",
			seed, dWheel, wWheel.ControlVisits, wSweep.ControlVisits)
	}
}

// TestWheelMatchesFullSweepAcrossGOMAXPROCS pins the equivalence at
// both parallelism settings and across the shard partition:
// {wheel, visit-all} × {GOMAXPROCS 1, 8}, the visit-all runs at four
// shards, must all produce one digest.
func TestWheelMatchesFullSweepAcrossGOMAXPROCS(t *testing.T) {
	orig := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(orig)
	wheel1, _ := schedScenario(t, 4242)
	sweep1, _ := schedScenario(t, 4242, setShards(t, 4), visitAll)
	runtime.GOMAXPROCS(8)
	wheel8, _ := schedScenario(t, 4242)
	sweep8, _ := schedScenario(t, 4242, setShards(t, 4), visitAll)
	if wheel1 != sweep1 || wheel1 != wheel8 || wheel1 != sweep8 {
		t.Fatalf("digests diverged: wheel1=%#x sweep1=%#x wheel8=%#x sweep8=%#x",
			wheel1, sweep1, wheel8, sweep8)
	}
}

// TestControlCountersAreBarrierFolded pins the mid-run read contract of
// ControlVisits, Adaptations and ReadySessions (the benchmark drivers
// read them between ticks): after every tick each is monotone, nothing
// is left pending on a shard, and ControlVisits equals the sum of the
// per-shard visit totals — at one shard and at four.
func TestControlCountersAreBarrierFolded(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ticks := 0
		var visits int64
		var adapts, ready int
		check := func(w *World) {
			w.Engine.OnTick(func(_, now sim.Time) {
				ticks++
				var sum int64
				for _, st := range w.ShardStats() {
					sum += st.Visits
				}
				if w.ControlVisits != sum {
					t.Fatalf("shards=%d t=%v: ControlVisits %d != per-shard sum %d",
						shards, now, w.ControlVisits, sum)
				}
				for _, sh := range w.shards {
					if sh.visits != 0 || sh.adapts != 0 || sh.ready != 0 || sh.natRefusals != 0 {
						t.Fatalf("shards=%d t=%v: shard %d holds unfolded counters", shards, now, sh.idx)
					}
				}
				if w.ControlVisits < visits || w.Adaptations < adapts || w.ReadySessions < ready {
					t.Fatalf("shards=%d t=%v: a folded counter moved backwards", shards, now)
				}
				visits, adapts, ready = w.ControlVisits, w.Adaptations, w.ReadySessions
			})
		}
		schedScenario(t, 7, setShards(t, shards), check)
		if ticks == 0 || visits == 0 || adapts == 0 || ready == 0 {
			t.Fatalf("shards=%d: vacuous run (ticks=%d visits=%d adapts=%d ready=%d)",
				shards, ticks, visits, adapts, ready)
		}
	}
}
