package peer

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"testing"

	"coolstream/internal/gossip"
	"coolstream/internal/logsys"
	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
)

// peakBenchSize is the flash-crowd population: the paper's 40k evening
// peak by default, overridable via PEAK_BENCH_PEERS for CI smoke runs
// that only need the bench exercised, not held at full scale.
func peakBenchSize() int {
	if s := os.Getenv("PEAK_BENCH_PEERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 40000
}

// benchWorld builds a world with nPeers long-lived peers, settles the
// overlay, and returns it ready for per-tick measurement.
func benchWorld(b *testing.B, nPeers int, churnFree bool) (*World, *sim.Engine) {
	b.Helper()
	p := DefaultParams()
	engine := sim.NewEngine(sim.Second)
	w, err := NewWorld(p, engine, logsys.NopSink{}, netmodel.ConstantLatency{D: 50 * sim.Millisecond},
		gossip.RandomReplace{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	if churnFree {
		// Fixed topology: no stall-abandons, no crashes, infinite watches.
		w.StallAbandonProb = 0
		w.CrashProb = 0
	}
	for i := 0; i < 4+nPeers/100; i++ {
		w.AddServer(20 * 768e3)
	}
	engine.Run(30 * sim.Second)
	prof := netmodel.DefaultCapacityProfile(768e3)
	rng := w.rng.SplitLabeled("bench")
	for i := 0; i < nPeers; i++ {
		i := i
		at := 30*sim.Second + sim.Time(i%60)*sim.Second
		engine.Schedule(at, func() {
			class := netmodel.UserClass(i % 4)
			// Effectively infinite watch time so the population cannot
			// drain no matter how many virtual seconds b.N covers.
			w.Join(1000+i, prof.Draw(class, rng), 1000*sim.Hour, 0, 0)
		})
	}
	engine.Run(4 * sim.Minute) // let the overlay settle
	return w, engine
}

// BenchmarkTickSteadyState measures one control tick over a settled
// 1k-peer overlay with a fixed topology (no churn, no adaptation
// pressure) — the hot path the topology-epoch cache targets. The
// allocs/op figure is the PR's zero-allocation acceptance metric.
func BenchmarkTickSteadyState(b *testing.B) {
	w, engine := benchWorld(b, 1000, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(engine.Now() + sim.Second)
	}
	b.ReportMetric(float64(w.ActivePeerCount()), "active_peers")
}

// BenchmarkTickChurn measures ticks under heavy adaptation: a steady
// arrival stream of short-watch peers keeps the overlay re-wiring, so
// the topology cache is invalidated nearly every tick.
func BenchmarkTickChurn(b *testing.B) {
	w, engine := benchWorld(b, 600, false)
	prof := netmodel.DefaultCapacityProfile(768e3)
	rng := w.rng.SplitLabeled("bench-churn")
	next := 2000
	// Self-rescheduling arrival process: four short-lived joins per
	// virtual second keep churn going for any b.N.
	var arrive func()
	arrive = func() {
		for k := 0; k < 4; k++ {
			id := next
			next++
			class := netmodel.UserClass(id % 4)
			watch := sim.Time(20+rng.Intn(90)) * sim.Second
			w.Join(id, prof.Draw(class, rng), watch, 1, 0)
		}
		engine.After(sim.Second, arrive)
	}
	engine.After(sim.Second, arrive)
	// Reach churn equilibrium before the timer starts: the measured
	// region is steady-state churn, not the arrival ramp (whose one-time
	// pool-warming allocations would otherwise smear into allocs/op).
	engine.Run(engine.Now() + 3000*sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(engine.Now() + sim.Second)
	}
	b.ReportMetric(float64(w.ActivePeerCount()), "active_peers")
}

// BenchmarkJoinDepartChurn hammers the membership machinery: a large
// settled overlay with a continuous stream of short-watch arrivals, so
// every virtual second joins peers, retires peers, and recycles their
// internals through the free lists. The allocs/op figure is the
// churn-path acceptance metric for the node arena.
func BenchmarkJoinDepartChurn(b *testing.B) {
	w, engine := benchWorld(b, 2000, false)
	prof := netmodel.DefaultCapacityProfile(768e3)
	rng := w.rng.SplitLabeled("bench-jdc")
	next := 100000
	var arrive func()
	arrive = func() {
		for k := 0; k < 8; k++ {
			id := next
			next++
			class := netmodel.UserClass(id % 4)
			watch := sim.Time(15+rng.Intn(45)) * sim.Second
			w.Join(id, prof.Draw(class, rng), watch, 1, 0)
		}
		engine.After(sim.Second, arrive)
	}
	engine.After(sim.Second, arrive)
	engine.Run(engine.Now() + 3000*sim.Second) // reach churn equilibrium
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(engine.Now() + sim.Second)
	}
	b.ReportMetric(float64(w.ActivePeerCount()), "active_peers")
}

// benchWorldPeak builds the paper's evening-peak regime: a diurnal-style
// accelerating ramp to nPeers concurrent viewers (arrival rate grows
// linearly across the ramp, like the Fig. 5 build-up toward 21:00),
// settled and ready for peak-hold measurement.
func benchWorldPeak(b testing.TB, nPeers, shards int, tune func(*Params)) (*World, *sim.Engine) {
	b.Helper()
	p := DefaultParams()
	if tune != nil {
		tune(&p)
	}
	engine := sim.NewEngine(sim.Second)
	w, err := NewWorld(p, engine, logsys.NopSink{}, netmodel.ConstantLatency{D: 50 * sim.Millisecond},
		gossip.RandomReplace{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.SetShards(shards); err != nil {
		b.Fatal(err)
	}
	w.StallAbandonProb = 0
	w.CrashProb = 0
	// A handful of fat servers, not a server farm: bootstrap replies are
	// servers-first, so a large server tier would crowd every regular
	// peer out of the candidate lists and the overlay could never absorb
	// the arrival wave through peer-to-peer capacity.
	for i := 0; i < 8; i++ {
		w.AddServer(250 * 768e3)
	}
	engine.Run(30 * sim.Second)
	// Provision uploads at 2x the stream rate's default mix. At the
	// paper's tight ~1.35x resource index a 40k overlay degenerates into
	// frozen sub-stream trees (most nodes permanently re-subscribing),
	// which measures the stall cascade, not the control plane. The
	// well-provisioned mix keeps the overlay in healthy steady state so
	// the peak-hold tick is representative.
	prof := netmodel.DefaultCapacityProfile(2 * 768e3)
	rng := w.rng.SplitLabeled("bench-peak")
	const ramp = 600.0 // seconds of virtual build-up
	for i := 0; i < nPeers; i++ {
		i := i
		// sqrt spacing: instantaneous arrival rate grows linearly with
		// time, an accelerating evening build-up rather than a step.
		// Patience lets arrivals caught in the crowd retry (the paper's
		// users reloading through the flash-crowd join struggle).
		off := sim.Time(ramp*math.Sqrt(float64(i)/float64(nPeers))*1000) * sim.Millisecond
		engine.Schedule(30*sim.Second+off, func() {
			class := netmodel.UserClass(i % 4)
			w.Join(1000+i, prof.Draw(class, rng), 1000*sim.Hour, 5, 0)
		})
	}
	// Settle well past the crowd: retry chains run up to
	// patience*(JoinTimeout+RetryDelay) ~ 5 min past the last arrival,
	// and the sub-stream trees knocked over by the wave need a few
	// minutes to re-parent before the population is in steady viewing.
	engine.Run(30*sim.Second + sim.Time(ramp)*sim.Second + 600*sim.Second)
	return w, engine
}

// meterPeakHold times b.N one-second ticks of a settled peak world and
// reports the control phase's own cost (control_ns_op via MeterControl)
// and the due wheel's work (visits_op) next to active_peers.
func meterPeakHold(b *testing.B, w *World, engine *sim.Engine) {
	b.Logf("peak population: %d active, %d failed sessions", w.ActivePeerCount(), w.FailedSessions)
	w.MeterControl(true)
	base := w.ControlNanos
	baseVisits := w.ControlVisits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(engine.Now() + sim.Second)
	}
	b.StopTimer()
	b.ReportMetric(float64(w.ControlNanos-base)/float64(b.N), "control_ns_op")
	b.ReportMetric(float64(w.ControlVisits-baseVisits)/float64(b.N), "visits_op")
	b.ReportMetric(float64(w.ActivePeerCount()), "active_peers")
}

// BenchmarkTickFlashCrowd40k measures one tick while holding the
// paper's evening peak of 40k concurrent viewers, at one world shard
// and at four. The control_ns_op metric isolates the control phase (via
// MeterControl) and visits_op is the due wheel's work per tick against
// active_peers; the fluid allocate/advance phases are O(population).
// After the timed hold, the run finishes with the
// 22:00 program-end cliff (every viewer departs) to exercise the
// departure storm at full scale.
func BenchmarkTickFlashCrowd40k(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			w, engine := benchWorldPeak(b, peakBenchSize(), shards, nil)
			meterPeakHold(b, w, engine)
			// The 22:00 cliff: everyone leaves at once. Arrivals that were
			// mid-retry when the program ended re-join moments later, so
			// sweep the stragglers until the retry chains are exhausted.
			for i := 0; ; i++ {
				w.DepartAllPeers("program-end")
				engine.Run(engine.Now() + 5*sim.Second)
				if w.ActivePeerCount() == 0 && engine.Pending() == 0 {
					break
				}
				if i > 200 {
					b.Fatalf("%d peers still active after the cliff", w.ActivePeerCount())
				}
			}
		})
	}
}

// BenchmarkTickSparseControl holds a 10k peak under a sparse control
// plane: BMPeriod 30 s (Tp/Ts widened proportionally so the staler
// views don't thrash adaptation) and gossip once a minute. At the
// Table I defaults BM phase dispersion keeps ~75-83% of nodes
// genuinely due every tick, which caps what any scheduler can skip
// (DESIGN.md §9); with sparse periods the duty cycle drops to ~20%:
// visits_op against active_peers is the share of the population the
// due wheel actually visits.
func BenchmarkTickSparseControl(b *testing.B) {
	sparse := func(p *Params) {
		p.BMPeriod = 30 * sim.Second
		p.GossipPeriod = 60 * sim.Second
		p.Tp = 80
		p.Ts = 40
	}
	w, engine := benchWorldPeak(b, 10000, 1, sparse)
	meterPeakHold(b, w, engine)
}

// millionBenchSize is the synthetic-overlay population for the
// million-peer scaling benchmark, overridable via MILLION_BENCH_PEERS
// for CI smoke runs.
func millionBenchSize() int {
	if s := os.Getenv("MILLION_BENCH_PEERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 1_000_000
}

// benchWorldSynthetic wraps NewSyntheticWorld (synthetic.go) — the
// settled steady-state overlay shared with the cmd/coolbench -tickab
// interleaved harness — converting construction errors to b.Fatal.
func benchWorldSynthetic(b testing.TB, nPeers, shards int) (*World, *sim.Engine) {
	b.Helper()
	w, engine, err := NewSyntheticWorld(nPeers, shards)
	if err != nil {
		b.Fatal(err)
	}
	return w, engine
}

// BenchmarkTickMillionPeer measures one control tick holding a
// million-peer synthetic overlay (MILLION_BENCH_PEERS overrides the
// population), at one shard and at eight. The per-phase nanosecond
// metrics come from MeterPhases; merge_ns_op is the control phase's
// sequential barrier (residue effect drain + record-lane flush), the
// serialization cost the parallel control pays for determinism. Wall
// speedup requires real cores: on a single-CPU runner the eight-shard
// figure measures engine overhead, not parallelism.
func BenchmarkTickMillionPeer(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			w, engine := benchWorldSynthetic(b, millionBenchSize(), shards)
			b.Logf("population: %d active peers, %d shards, GOMAXPROCS %d",
				w.ActivePeerCount(), w.NumShards(), runtime.GOMAXPROCS(0))
			w.MeterPhases(true)
			base := w.PhaseStats()
			baseVisits := w.ControlVisits
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.Run(engine.Now() + sim.Second)
			}
			b.StopTimer()
			ph := w.PhaseStats()
			n := float64(b.N)
			b.ReportMetric(float64(ph.Allocate-base.Allocate)/n, "alloc_ns_op")
			b.ReportMetric(float64(ph.Advance-base.Advance)/n, "advance_ns_op")
			b.ReportMetric(float64(ph.Playback-base.Playback)/n, "playback_ns_op")
			b.ReportMetric(float64(ph.Control-base.Control)/n, "control_ns_op")
			b.ReportMetric(float64(ph.Drain-base.Drain)/n, "drain_ns_op")
			b.ReportMetric(float64(ph.Merge-base.Merge)/n, "merge_ns_op")
			// The Amdahl number of the sharded tick: the sequential
			// barrier's share of whole-tick time. The drain passes are
			// excluded — they partition by target/source shard and run
			// on the worker pool.
			if el := b.Elapsed(); el > 0 {
				b.ReportMetric(float64(ph.Merge-base.Merge)/float64(el.Nanoseconds()), "merge_share")
			}
			b.ReportMetric(float64(w.ControlVisits-baseVisits)/n, "visits_op")
			b.ReportMetric(float64(w.ActivePeerCount()), "active_peers")
		})
	}
}

// BenchmarkWorldTick measures the steady-state cost of advancing a
// ~150-peer overlay by one control tick (all five phases).
func BenchmarkWorldTick(b *testing.B) {
	p := DefaultParams()
	engine := sim.NewEngine(sim.Second)
	w, err := NewWorld(p, engine, logsys.NopSink{}, netmodel.ConstantLatency{D: 50 * sim.Millisecond},
		gossip.RandomReplace{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w.AddServer(20 * 768e3)
	}
	engine.Run(30 * sim.Second)
	prof := netmodel.DefaultCapacityProfile(768e3)
	rng := w.rng.SplitLabeled("bench")
	for i := 0; i < 150; i++ {
		class := netmodel.UserClass(i % 4)
		// Effectively infinite watch time so the population cannot
		// drain no matter how many virtual seconds b.N covers.
		w.Join(1000+i, prof.Draw(class, rng), 1000*sim.Hour, 0, 0)
	}
	engine.Run(2 * sim.Minute) // let the overlay settle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(engine.Now() + sim.Second)
	}
	b.ReportMetric(float64(w.ActivePeerCount()), "active_peers")
}
