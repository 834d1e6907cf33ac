package peer

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"coolstream/internal/gossip"
	"coolstream/internal/logsys"
	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
)

// worldDigest folds every emitted log record plus the final fluid
// state (per-node, per-sub-stream H, parent and byte counters) into a
// single FNV-1a hash. Two runs with the same digest behaved
// identically in every externally observable way.
func worldDigest(w *World, records []logsys.Record) uint64 {
	h := fnv.New64a()
	for _, rec := range records {
		fmt.Fprintln(h, rec.LogString())
	}
	for _, n := range w.Nodes() {
		fmt.Fprintf(h, "node %d state %d\n", n.ID, n.State)
		for j := range n.Subs {
			fmt.Fprintf(h, " sub %d parent %d H %x rate %x\n",
				j, n.Subs[j].Parent, math.Float64bits(n.Subs[j].H),
				math.Float64bits(n.Subs[j].RateBps))
		}
		fmt.Fprintf(h, " up %x down %x\n",
			math.Float64bits(n.CumUploadB), math.Float64bits(n.CumDownloadB))
	}
	return h.Sum64()
}

// digestScenario runs a fixed mixed-churn scenario (joins, crashes,
// retries, stall-abandons, a program-end cliff) and returns its digest.
// Optional mut hooks run on the fresh world before any server or peer
// joins (the SetShards window).
func digestScenario(t *testing.T, controlLoss float64, mut ...func(*World)) uint64 {
	return digestScenarioSink(t, controlLoss, &logsys.MemorySink{},
		func(s logsys.Sink) []logsys.Record { return s.(*logsys.MemorySink).Records() }, mut...)
}

// digestScenarioSharded is digestScenario collecting through a
// ShardedSink, so media-ready records travel the lock-free parallel
// playback lanes instead of the deferred sequential path.
func digestScenarioSharded(t *testing.T, controlLoss float64, mut ...func(*World)) uint64 {
	return digestScenarioSink(t, controlLoss, logsys.NewShardedSink(0),
		func(s logsys.Sink) []logsys.Record { return s.(*logsys.ShardedSink).Drain() }, mut...)
}

func digestScenarioSink(t *testing.T, controlLoss float64, sink logsys.Sink, records func(logsys.Sink) []logsys.Record, mut ...func(*World)) uint64 {
	t.Helper()
	p := DefaultParams()
	p.ReportPeriod = 30 * sim.Second
	p.ControlLossProb = controlLoss
	engine := sim.NewEngine(sim.Second)
	w, err := NewWorld(p, engine, sink, netmodel.ConstantLatency{D: 50 * sim.Millisecond},
		gossip.RandomReplace{}, 4242)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mut {
		m(w)
	}
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
	return worldDigest(w, records(sink))
}

// goldenRunDigest is the digest of digestScenario(0) — the one pinned
// golden of the fluid engine. It locks the loss-free RNG-draw order,
// the fluid arithmetic and the control serialization (DESIGN.md §11):
// any change to the effect taxonomy, the (src, seq) drain order or the
// frozen-state contract moves it; a change to shard count, GOMAXPROCS
// or sink type must not (TestShardedDigestInvariant,
// TestRunDigestShardedSinkMatchesGolden).
const goldenRunDigest uint64 = 0x702c509d4fc1a3d6

// TestRunDigestMatchesGolden pins the default world (one shard, memory
// sink) to the golden.
func TestRunDigestMatchesGolden(t *testing.T) {
	got := digestScenario(t, 0)
	t.Logf("digest = %#x", got)
	if got != goldenRunDigest {
		t.Fatalf("run digest %#x differs from golden %#x", got, goldenRunDigest)
	}
}

// TestRunDigestShardedSinkMatchesGolden pins the sharded-sink
// determinism contract: routing the parallel playback phase's
// media-ready records through per-shard lanes and merging by (time,
// peer, kind) on drain must reproduce the MemorySink record stream —
// and hence the golden digest — bit for bit, serial and parallel.
func TestRunDigestShardedSinkMatchesGolden(t *testing.T) {
	got := digestScenarioSharded(t, 0)
	t.Logf("sharded digest = %#x", got)
	if got != goldenRunDigest {
		t.Fatalf("sharded-sink run digest %#x differs from golden %#x", got, goldenRunDigest)
	}
	orig := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(orig)
	if serial := digestScenarioSharded(t, 0); serial != got {
		t.Fatalf("sharded-sink digest differs across GOMAXPROCS: %#x vs %#x", serial, got)
	}
}

// TestRunDigestIndependentOfGOMAXPROCS pins the shard-ownership
// contract of the persistent worker pool: the same scenario must
// produce bit-identical results serial (GOMAXPROCS=1, every shard runs
// inline) and parallel (GOMAXPROCS=8, shards hand off to pool workers).
func TestRunDigestIndependentOfGOMAXPROCS(t *testing.T) {
	orig := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(orig)
	serial := digestScenario(t, 0.1)
	runtime.GOMAXPROCS(8)
	parallel := digestScenario(t, 0.1)
	if serial != parallel {
		t.Fatalf("digest differs across GOMAXPROCS: serial %#x vs parallel %#x", serial, parallel)
	}
}

// TestControlLossRunsAreReproducible is the regression test for the
// refreshBMs determinism bug: with ControlLossProb > 0 the seed code
// drew n.rng.Bool inside a map-ordered loop, making whole runs depend
// on Go's randomized map iteration. Two same-seed runs must now agree.
func TestControlLossRunsAreReproducible(t *testing.T) {
	a := digestScenario(t, 0.2)
	b := digestScenario(t, 0.2)
	if a != b {
		t.Fatalf("same-seed runs with ControlLossProb>0 diverged: %#x vs %#x", a, b)
	}
}
