package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"coolstream/bench/stat"
	"coolstream/internal/core"
	"coolstream/internal/logsys"
	"coolstream/internal/metrics"
	"coolstream/internal/peer"
	"coolstream/internal/sim"
	"coolstream/internal/workload"
	"coolstream/internal/xrand"
)

// memMark is a reading of the allocator's cumulative counters.
type memMark struct {
	mallocs, bytes uint64
}

func readMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.Mallocs, m.TotalAlloc}
}

func (a memMark) since(b memMark) memMark {
	return memMark{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// liveHeapMiB forces a collection and returns what is still reachable.
// The caller keeps the workload's result, world or nodes referenced
// across the call, so the number is the system's live state.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fluidDay is the paper's event day through every fluid layer, the way
// coolsim then coolanalyze run it: generate the arrivals, simulate,
// write the log, read it back, sessionize, render every figure.
//
// A work unit is one simulated peer-second (the sum of session
// durations). Simulated sessions that fail to join are the simulated
// system's outcome (ok_ratio), not failed benchmark operations.
func fluidDay(p *pass) error {
	sz := p.sz
	cfg := core.DayConfig(sz.dayLength, sz.dayRate, p.seed)
	cfg.Servers = sz.dayServers
	cfg.Shards = 1

	// Set-up: the arrivals are the workload's input, generated here
	// from the seed; the engine receives them ready-made.
	var scenario workload.Scenario
	for i := 0; i < sz.setupRepeats; i++ {
		sp := p.tr.begin("workload.Generate", p.root)
		t0 := time.Now()
		sc, err := workload.Generate(cfg.Workload, xrand.New(p.seed).SplitLabeled("scenario"))
		p.repeated = append(p.repeated, time.Since(t0).Seconds())
		p.tr.end(sp)
		if err != nil {
			return err
		}
		scenario = sc
	}
	cfg.PresetScenario = &scenario
	logPath := filepath.Join(p.outDir, fmt.Sprintf("fluid_day.%d.log", os.Getpid()))
	defer os.Remove(logPath)
	p.settle()
	p.e2e("setup_s", p.setupSeconds(), "s")

	// The measured window.
	m0 := readMem()
	sp := p.tr.begin("core.Run", p.root)
	res, err := core.Run(cfg)
	p.tr.end(sp)
	p.op(err != nil)
	if err != nil {
		return err
	}

	w0 := readMem()
	sp = p.tr.begin("logsys.WriterSink", p.root)
	f, err := os.Create(logPath)
	if err != nil {
		return err
	}
	sink := logsys.NewWriterSink(f)
	for _, rec := range res.Records {
		sink.Log(rec)
	}
	err = f.Close()
	p.tr.end(sp)
	p.op(err != nil)
	if err != nil {
		return err
	}
	w1 := readMem()

	sp = p.tr.begin("logsys.ScanLog+metrics.Feed", p.root)
	f, err = os.Open(logPath)
	if err != nil {
		return err
	}
	an := metrics.NewAnalyzer(0)
	scanned := 0
	err = logsys.ScanLog(f, func(rec logsys.Record) error {
		scanned++
		an.Feed(rec)
		return nil
	})
	f.Close()
	reread := an.Finish()
	p.tr.end(sp)
	p.op(err != nil)
	if err != nil {
		return err
	}

	// Figures come from the log that was read back, as coolanalyze's do.
	sp = p.tr.begin("core.Figures", p.root)
	fromLog := *res
	fromLog.Analysis = reread
	renderFigures(&fromLog)
	p.tr.end(sp)
	p.op(false)
	window := readMem().since(m0)
	heap := liveHeapMiB()

	// Outcomes.
	var upload, download int64
	for _, s := range reread.Sessions {
		upload += s.UploadBytes
		download += s.DownloadBytes
	}
	durations := reread.Durations()
	ops := durations.Mean() * float64(durations.N())
	_, ready, _ := reread.StartupDelays()

	p.e2e("ok_ratio", 1-ratio(float64(res.FailedSessions), float64(res.JoinedSessions)), "ratio")
	p.e2e("continuity", reread.MeanContinuity(), "ratio")
	p.layer("source_share", 1-ratio(float64(upload), float64(download)), "ratio")
	p.e2e("allocs_per_op", ratio(float64(window.mallocs), ops), "1/op")
	p.e2e("alloc_bytes_per_op", ratio(float64(window.bytes), ops), "B/op")
	p.e2e("heap_live_mb", heap, "MiB")

	// Output checks: the log round trip loses nothing the analysis
	// reads (continuity is printed with finite digits, hence 1e-6).
	_, readyMem, _ := res.Analysis.StartupDelays()
	p.check("log_roundtrip_sessions", scanned == len(res.Records) && len(reread.Sessions) == len(res.Analysis.Sessions),
		"%d records written, %d read; %d sessions in memory, %d from the log",
		len(res.Records), scanned, len(res.Analysis.Sessions), len(reread.Sessions))
	p.check("log_roundtrip_continuity", math.Abs(reread.MeanContinuity()-res.Analysis.MeanContinuity()) < 1e-6,
		"mean continuity %.9f in memory, %.9f from the log", res.Analysis.MeanContinuity(), reread.MeanContinuity())
	p.check("log_roundtrip_ready_median", ready.N() == readyMem.N() && math.Abs(ready.Median()-readyMem.Median()) < 1e-6,
		"ready median %.3f s (n=%d) in memory, %.3f s (n=%d) from the log",
		readyMem.Median(), readyMem.N(), ready.Median(), ready.N())

	if p.traced() {
		records := float64(len(res.Records))
		var logBytes int64
		if st, err := os.Stat(logPath); err == nil {
			logBytes = st.Size()
		}
		p.layer("core.startup_s_p50", ready.Median(), "sim_s")
		p.layer("core.figures_s", p.tr.seconds("core.Figures"), "s")
		p.layer("workload.generate_s", stat.Median(p.repeated), "s")
		p.layer("workload.sessions", float64(len(scenario.Specs)), "count")
		p.layer("logsys.records", records, "count")
		p.layer("logsys.bytes_per_record", ratio(float64(logBytes), records), "B")
		p.layer("logsys.encode_ns_per_record", ratio(p.tr.seconds("logsys.WriterSink")*1e9, records), "ns")
		p.layer("logsys.encode_allocs_per_record", ratio(float64(w1.since(w0).mallocs), records), "1/op")

		// The scan and the analyzer, each alone.
		s0 := readMem()
		sp = p.tr.begin("logsys.ScanLog", p.root)
		if f, err = os.Open(logPath); err != nil {
			return err
		}
		err = logsys.ScanLog(f, func(logsys.Record) error { return nil })
		f.Close()
		scanS := p.tr.end(sp).Seconds()
		if err != nil {
			return err
		}
		p.layer("logsys.scan_ns_per_record", ratio(scanS*1e9, records), "ns")
		p.layer("logsys.scan_allocs_per_record", ratio(float64(readMem().since(s0).mallocs), records), "1/op")

		sp = p.tr.begin("metrics.Feed+Finish", p.root)
		stream := metrics.NewAnalyzer(0)
		for _, rec := range res.Records {
			stream.Feed(rec)
		}
		streamed := stream.Finish()
		streamS := p.tr.end(sp).Seconds()
		sp = p.tr.begin("metrics.Analyze", p.root)
		batch := metrics.Analyze(res.Records)
		p.layer("metrics.analyze_s", p.tr.end(sp).Seconds(), "s")
		p.layer("metrics.stream_s", streamS, "s")
		p.layer("metrics.ns_per_record", ratio(streamS*1e9, records), "ns")
		p.layer("metrics.sessions", float64(len(streamed.Sessions)), "count")
		p.check("analyzers_agree", len(batch.Sessions) == len(streamed.Sessions),
			"batch %d sessions, streaming %d", len(batch.Sessions), len(streamed.Sessions))
	}

	// Determinism: the same inputs give the same run, bit for bit. The
	// first result is released before the repeat so one run's records
	// are live at a time.
	digest := res.Digest()
	res, fromLog.Records, fromLog.Analysis = nil, nil, nil
	repeats := 1
	if p.traced() {
		repeats = 2 // three runs in all: core.sim_speed is their median
	}
	for i := 0; i < repeats; i++ {
		sp = p.tr.begin("core.Run", p.root)
		again, err := core.Run(cfg)
		p.tr.end(sp)
		p.op(err != nil)
		if err != nil {
			return err
		}
		d := again.Digest()
		p.check(fmt.Sprintf("same_seed_same_digest_%d", i+1), d == digest,
			"digest %#x, repeat %#x", digest, d)
	}
	if p.traced() {
		runs := p.tr.durations("core.Run")
		speeds := make([]float64, len(runs))
		for i, s := range runs {
			speeds[i] = ratio(ops, s)
		}
		p.layer("core.run_s", stat.Median(runs), "s")
		p.layer("core.sim_speed", stat.Median(speeds), "op/s")
		p.layer("core.sim_speed_spread", stat.RangeShare(speeds), "ratio")
		// Spans are recorded by the driver only, so the traced and the
		// plain run of the engine are the same code: the ratio of the
		// first (measured) run to the repeats is host-time noise plus
		// the readings taken around it.
		p.layer("proc.trace_overhead", ratio(runs[0], stat.Median(runs[1:])), "ratio")
	}
	return nil
}

// renderFigures renders every table coolsim writes to figures.txt.
func renderFigures(r *core.Result) {
	bucket := r.Horizon() / 200
	if bucket < sim.Second {
		bucket = sim.Second
	}
	for _, t := range []*metrics.Table{
		r.Summary(), r.Fig3a(), r.Fig3b(), r.Fig4(), r.Fig5(bucket),
		r.Fig6(), r.Fig7(), r.Fig8(bucket), r.Fig9a(bucket, 6),
		r.Fig9b(bucket, 6), r.Fig10a(), r.Fig10b(), r.Fig10c(),
	} {
		t.Render(io.Discard)
	}
}

// steadyWorld is one settled synthetic population and its engine.
type steadyWorld struct {
	w      *peer.World
	engine *sim.Engine
	root   *peer.Node
}

func buildSteady(p *pass) (*steadyWorld, error) {
	sp := p.tr.begin("peer.NewSyntheticWorld", p.root)
	t0 := time.Now()
	w, engine, err := peer.NewSyntheticWorld(p.sz.steadyPeers, p.sz.steadyShards)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.sz.steadyWarm; i++ {
		engine.Run(engine.Now() + sim.Second)
	}
	p.repeated = append(p.repeated, time.Since(t0).Seconds())
	p.tr.end(sp)
	s := &steadyWorld{w: w, engine: engine}
	for _, n := range w.Nodes() {
		if n.IsServer() {
			s.root = n
			break
		}
	}
	if s.root == nil {
		return nil, fmt.Errorf("synthetic world has no server")
	}
	return s, nil
}

// playbackLead is how far behind the live edge NewSyntheticWorld
// starts every peer's playback deadline, in per-sub-stream blocks; the
// deadline then advances at the stream rate, as the live edge does.
const playbackLead = 20

// sampleOnTime counts, over every active peer and sub-stream, the
// heads at or ahead of the playback deadline. The world logs to a
// NopSink and its playback accumulators are private, so continuity is
// recomputed here from the public per-sub-stream heads.
func (s *steadyWorld) sampleOnTime() (onTime, due int) {
	deadline := s.root.MaxH() - playbackLead
	for _, n := range s.w.Nodes() {
		if n.IsServer() || !n.Active() {
			continue
		}
		for j := range n.Subs {
			due++
			if n.Subs[j].H >= deadline {
				onTime++
			}
		}
	}
	return
}

// uploads returns cumulative upload bytes of the server tier and of
// everyone.
func (s *steadyWorld) uploads() (servers, all float64) {
	for _, n := range s.w.Nodes() {
		all += n.CumUploadB
		if n.IsServer() {
			servers += n.CumUploadB
		}
	}
	return
}

// fluidSteady ticks a settled population on the sharded
// deferred-control path: no joins, no log, no analyzer. A work unit is
// one simulated peer-second (peers × one-second ticks).
func fluidSteady(p *pass) error {
	sz := p.sz
	// Set-up, several times: the first worlds are thrown away (they
	// also take the fresh process's page faults), the last is measured.
	for i := 0; i < sz.setupRepeats-1; i++ {
		if _, err := buildSteady(p); err != nil {
			return err
		}
	}
	world, err := buildSteady(p)
	if err != nil {
		return err
	}
	if p.traced() {
		world.w.MeterPhases(true)
	}
	p.settle()
	p.e2e("setup_s", p.setupSeconds(), "s")

	// The measured window.
	var (
		onTime, due int
		tickMs      = make([]float64, 0, sz.steadyTicks)
		phases      [7][]float64
	)
	srv0, all0 := world.uploads()
	visits0 := world.w.ControlVisits
	shard0 := world.w.ShardStats()
	m0 := readMem()
	win := p.tr.begin("peer.Ticks", p.root)
	t0 := time.Now()
	for i := 0; i < sz.steadyTicks; i++ {
		if !p.traced() {
			world.engine.Run(world.engine.Now() + sim.Second)
		} else {
			ph0 := world.w.PhaseStats()
			tt := time.Now()
			world.engine.Run(world.engine.Now() + sim.Second)
			tickMs = append(tickMs, float64(time.Since(tt).Nanoseconds())/1e6)
			ph1 := world.w.PhaseStats()
			for k, d := range []int64{
				ph1.Allocate - ph0.Allocate, ph1.Advance - ph0.Advance, ph1.Playback - ph0.Playback,
				ph1.Account - ph0.Account, ph1.Control - ph0.Control, ph1.Drain - ph0.Drain, ph1.Merge - ph0.Merge,
			} {
				phases[k] = append(phases[k], float64(d)/1e6)
			}
		}
		a, b := world.sampleOnTime()
		onTime, due = onTime+a, due+b
	}
	wallA := time.Since(t0).Seconds()
	p.tr.end(win)
	p.op(false)
	window := readMem().since(m0)
	heap := liveHeapMiB()
	visits := world.w.ControlVisits - visits0
	srv1, all1 := world.uploads()
	ops := float64(sz.steadyPeers) * float64(sz.steadyTicks)

	p.e2e("ok_ratio", ratio(float64(world.w.ActivePeerCount()), float64(sz.steadyPeers)), "ratio")
	p.e2e("continuity", ratio(float64(onTime), float64(due)), "ratio")
	p.layer("source_share", ratio(srv1-srv0, all1-all0), "ratio")
	p.e2e("allocs_per_op", ratio(float64(window.mallocs), ops), "1/op")
	p.e2e("alloc_bytes_per_op", ratio(float64(window.bytes), ops), "B/op")
	p.e2e("heap_live_mb", heap, "MiB")

	if p.traced() {
		ticks := float64(sz.steadyTicks)
		q1, _, q3 := stat.Quartiles(tickMs)
		p.layer("peer.build_s", stat.Median(p.repeated), "s")
		p.layer("peer.tick_ms_p50", stat.Median(tickMs), "ms")
		p.layer("peer.tick_ms_iqr", q3-q1, "ms")
		for k, name := range []string{"allocate", "advance", "playback", "account", "control", "drain", "merge"} {
			p.layer("peer."+name+"_ms", stat.Median(phases[k]), "ms")
		}
		var refreshes, effects, maxVisits, sumVisits float64
		shard1 := world.w.ShardStats()
		for i := range shard1 {
			v := float64(shard1[i].Visits - shard0[i].Visits)
			sumVisits += v
			maxVisits = math.Max(maxVisits, v)
			refreshes += float64(shard1[i].BMRefreshes - shard0[i].BMRefreshes)
			effects += float64(shard1[i].Effects - shard0[i].Effects)
		}
		p.layer("peer.control_visits_per_tick", float64(visits)/ticks, "count")
		p.layer("peer.bm_refreshes_per_tick", refreshes/ticks, "count")
		p.layer("peer.effects_per_tick", effects/ticks, "count")
		p.layer("peer.shard_imbalance", ratio(maxVisits, sumVisits/float64(len(shard1))), "ratio")
		p.layer("peer.allocs_per_tick", float64(window.mallocs)/ticks, "count")
		p.layer("peer.heap_bytes_per_peer", heap*(1<<20)/float64(sz.steadyPeers), "B")
	}

	// Determinism: a second world built from the same arguments makes
	// the same control visits over the same ticks. It runs unmetered on
	// both passes, so on the traced pass the ratio of the two windows'
	// wall times is what metering every phase of every tick costs.
	world = nil
	again, err := buildSteady(p)
	if err != nil {
		return err
	}
	visits0 = again.w.ControlVisits
	sp := p.tr.begin("peer.Ticks.repeat", p.root)
	t0 = time.Now()
	for i := 0; i < sz.steadyTicks; i++ {
		again.engine.Run(again.engine.Now() + sim.Second)
		again.sampleOnTime()
	}
	wallB := time.Since(t0).Seconds()
	p.tr.end(sp)
	p.op(false)
	p.check("same_world_same_control_visits", again.w.ControlVisits-visits0 == visits,
		"%d control visits in the window, %d in the repeat", visits, again.w.ControlVisits-visits0)
	p.layer("proc.trace_overhead", ratio(wallA, wallB), "ratio")
	return nil
}
