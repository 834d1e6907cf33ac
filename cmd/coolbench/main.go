// Command coolbench regenerates every table and figure of the paper's
// evaluation (experiments E1-E12 of DESIGN.md) at a chosen scale and
// prints them as the same rows/series the paper reports. This is the
// full-size counterpart of the root bench_test.go benchmarks.
//
// Usage:
//
//	coolbench                 # medium scale, all experiments
//	coolbench -scale large    # bigger populations (slower)
//	coolbench -only fig5,fig9 # subset
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"coolstream/internal/analysis"
	"coolstream/internal/core"
	"coolstream/internal/metrics"
	"coolstream/internal/profiling"
	"coolstream/internal/sim"
	"coolstream/internal/tree"
	"coolstream/internal/xrand"
)

type scaleSpec struct {
	day        sim.Time
	dayRate    float64
	steadyRate float64
	steadyLen  sim.Time
	burstRate  float64
	servers    int
}

var scales = map[string]scaleSpec{
	"small":  {day: 12 * sim.Minute, dayRate: 0.4, steadyRate: 0.3, steadyLen: 8 * sim.Minute, burstRate: 3, servers: 6},
	"medium": {day: 36 * sim.Minute, dayRate: 0.8, steadyRate: 0.6, steadyLen: 15 * sim.Minute, burstRate: 6, servers: 8},
	"large":  {day: 96 * sim.Minute, dayRate: 1.5, steadyRate: 1.2, steadyLen: 30 * sim.Minute, burstRate: 12, servers: 12},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coolbench:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		scale  = flag.String("scale", "medium", "small | medium | large")
		seed   = flag.Uint64("seed", 1, "random seed")
		only   = flag.String("only", "", "comma-separated subset (fig3,fig4,fig5,fig6,fig7,fig8,fig9,fig10,eq36,tree,mcache,resource,allocator,loss,peerwise,reps)")
		reps   = flag.Int("reps", 5, "seeds for the replication table (reps experiment)")
		shards = flag.Int("shards", 0, "world shards for parallel control in the day run (0 = one per core; results are identical for every value)")

		tracker        = flag.Bool("tracker", false, "run the tracker load harness instead of the simulator experiments")
		trackerDur     = flag.Duration("trackerdur", 2*time.Second, "tracker: measurement window per mode")
		trackerPeers   = flag.Int("trackerpeers", 5000, "tracker: preloaded registrations")
		trackerClients = flag.Int("trackerclients", 8, "tracker: concurrent load workers")
		trackerJSON    = flag.String("trackerjson", "", "tracker: write results to this JSON file (default stdout)")

		tickab       = flag.Bool("tickab", false, "run the interleaved tick A/B harness (shard-count variants in alternating windows) instead of the simulator experiments")
		count        = flag.Int("count", 5, "tickab: interleaved measurement rounds per variant (median/spread over rounds)")
		tickabPeers  = flag.Int("tickabpeers", 200_000, "tickab: synthetic population per variant world")
		tickabShards = flag.String("tickabshards", "1,8", "tickab: comma-separated shard-count variants")
		tickabTicks  = flag.Int("tickabticks", 5, "tickab: engine ticks per measurement window")
		tickabJSON   = flag.String("tickabjson", "", "tickab: write results to this JSON file")
	)
	var prof profiling.Flags
	prof.Register(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProf(); e != nil && err == nil {
			err = e
		}
	}()
	if *tracker {
		return trackerBench(*trackerDur, *trackerPeers, *trackerClients, *trackerJSON)
	}
	if *tickab {
		return tickabBench(*tickabPeers, *tickabShards, *count, *tickabTicks, *tickabJSON)
	}
	spec, ok := scales[*scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }
	render := func(t *metrics.Table) {
		t.Render(os.Stdout)
		fmt.Println()
	}

	// ---- The shared day run (drives Figs. 3, 4, 5, 6, 7, 8, 9, 10).
	var dayRes *core.Result
	needDay := sel("fig3") || sel("fig4") || sel("fig5") || sel("fig6") ||
		sel("fig7") || sel("fig8") || sel("fig9") || sel("fig10")
	if needDay {
		cfg := core.DayConfig(spec.day, spec.dayRate, *seed)
		cfg.Servers = spec.servers
		cfg.Params.ReportPeriod = scaledReport(spec.day)
		cfg.SnapshotPeriod = spec.day / 24
		cfg.Shards = *shards
		start := time.Now()
		var err error
		dayRes, err = core.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("# day scenario: %v virtual, %v wall, %d sessions, peak %d concurrent\n\n",
			spec.day.Duration(), time.Since(start).Round(time.Millisecond),
			dayRes.JoinedSessions, dayRes.PeakConcurrent)
		render(dayRes.Summary())
		renderShardTables(dayRes, render)
	}
	bucket := spec.day / 144 // ~10-minute-equivalent buckets

	if sel("fig3") {
		render(dayRes.Fig3a())
		render(dayRes.Fig3b())
	}
	if sel("fig4") {
		render(dayRes.Fig4())
	}
	if sel("fig5") {
		render(dayRes.Fig5(bucket))
		metrics.ASCIIPlot(os.Stdout, "Fig. 5 — concurrent sessions",
			dayRes.Analysis.Concurrency(bucket/4, dayRes.Horizon()), 72, 12)
		fmt.Println()
	}
	if sel("fig6") {
		render(dayRes.Fig6())
	}
	if sel("fig7") {
		render(dayRes.Fig7())
	}
	if sel("fig8") {
		render(dayRes.Fig8(bucket))
		// The per-class continuity time series behind the scalar means.
		series := dayRes.Fig8Series(bucket)
		t := &metrics.Table{
			Title:  "Fig. 8 — continuity time series (per class)",
			Header: []string{"class", "points", "min", "max"},
		}
		for c, pts := range series {
			if len(pts) == 0 {
				continue
			}
			lo, hi := pts[0].Value, pts[0].Value
			for _, p := range pts[1:] {
				if p.Value < lo {
					lo = p.Value
				}
				if p.Value > hi {
					hi = p.Value
				}
			}
			t.AddRowf("%s\t%d\t%.4f\t%.4f", className(c), len(pts), lo, hi)
		}
		render(t)
	}
	if sel("fig9") {
		render(dayRes.Fig9a(bucket, 6))
		render(dayRes.Fig9b(bucket, 6))
	}
	if sel("fig10") {
		render(dayRes.Fig10a())
		render(dayRes.Fig10b())
	}

	// ---- E10: analytic model vs fluid micro-simulation.
	if sel("eq36") {
		if err := eq36Table(render); err != nil {
			return err
		}
	}

	// ---- E11: mesh vs single tree under identical churn.
	if sel("tree") {
		if err := treeTable(spec, *seed, render); err != nil {
			return err
		}
	}

	// ---- E12: mCache replacement policy under flash crowd.
	if sel("mcache") {
		if err := mcacheTable(spec, *seed, render); err != nil {
			return err
		}
	}

	// ---- E13: resource-index critical value (§V-E).
	if sel("resource") {
		if err := resourceTable(*seed, render); err != nil {
			return err
		}
	}

	// ---- E14: upload allocator ablation.
	if sel("allocator") {
		if err := allocatorTable(spec, *seed, render); err != nil {
			return err
		}
	}

	// ---- E16: control-plane loss robustness.
	if sel("loss") {
		if err := lossTable(spec, *seed, render); err != nil {
			return err
		}
	}

	// ---- Multi-seed replication of the headline metrics.
	if sel("reps") {
		cfg := core.SteadyConfig(spec.steadyRate, spec.steadyLen, *seed)
		cfg.Servers = spec.servers
		cfg.Params.ReportPeriod = 30 * sim.Second
		rs, err := core.Replicate(cfg, *reps, nil)
		if err != nil {
			return err
		}
		render(core.ReplicationTable(
			fmt.Sprintf("replication across %d seeds (steady scenario)", *reps), rs))
	}

	// ---- E17: peer-wise performance and overlay stability (§VI).
	if sel("peerwise") && dayRes != nil {
		peerwiseTables(dayRes, render)
	} else if sel("peerwise") {
		cfg := core.SteadyConfig(spec.steadyRate, spec.steadyLen, *seed)
		cfg.Servers = spec.servers
		cfg.Params.ReportPeriod = 30 * sim.Second
		res, err := core.Run(cfg)
		if err != nil {
			return err
		}
		peerwiseTables(res, render)
	}
	return nil
}

func lossTable(spec scaleSpec, seed uint64, render func(*metrics.Table)) error {
	t := &metrics.Table{
		Title:  "E16 — robustness to control-plane message loss",
		Header: []string{"loss_prob", "mean_continuity", "ready_median_s", "failed_sessions"},
	}
	for _, loss := range []float64{0, 0.1, 0.3, 0.6} {
		cfg := core.SteadyConfig(spec.steadyRate, spec.steadyLen, seed)
		cfg.Servers = spec.servers
		cfg.Params.ReportPeriod = 30 * sim.Second
		cfg.Params.ControlLossProb = loss
		res, err := core.Run(cfg)
		if err != nil {
			return err
		}
		_, ready, _ := res.Analysis.StartupDelays()
		med := "-"
		if ready.N() > 0 {
			med = fmt.Sprintf("%.2f", ready.Median())
		}
		t.AddRowf("%.1f\t%.4f\t%s\t%d", loss, res.Analysis.MeanContinuity(), med, res.FailedSessions)
	}
	render(t)
	return nil
}

func peerwiseTables(res *core.Result, render func(*metrics.Table)) {
	pw := res.Analysis.Peerwise(0.95)
	t := &metrics.Table{
		Title:  "E17a — peer-wise performance (§VI open issue 1)",
		Header: []string{"metric", "value"},
	}
	if pw.SessionCI.N() > 0 {
		t.AddRowf("sessions_with_qos\t%d", pw.SessionCI.N())
		t.AddRowf("session_ci_p10\t%.4f", pw.SessionCI.Quantile(0.1))
		t.AddRowf("session_ci_median\t%.4f", pw.SessionCI.Median())
		t.AddRowf("bottleneck_frac(ci<0.95)\t%.4f", pw.BottleneckFrac)
		for c := 0; c < len(pw.BottleneckByClass); c++ {
			t.AddRowf("bottleneck_share[%s]\t%.3f", className(c), pw.BottleneckByClass[c])
		}
	}
	render(t)

	st := res.Analysis.Stability()
	t2 := &metrics.Table{
		Title:  "E17b — overlay stability (partnership changes per report)",
		Header: []string{"class", "mean_changes_per_report"},
	}
	for c := 0; c < len(st.MeanByClass); c++ {
		t2.AddRowf("%s\t%.2f", className(c), st.MeanByClass[c])
	}
	if st.ChangesPerReport.N() > 0 {
		t2.AddRowf("overall_mean\t%.2f", st.ChangesPerReport.Mean())
	}
	render(t2)
}

func className(c int) string {
	return [...]string{"direct", "upnp", "nat", "firewall"}[c]
}

// renderShardTables prints the engine's load split: wall time
// per tick phase (the merge row is the determinism barrier — effect
// drain plus record-lane flush) and the per-shard control-plane
// imbalance (visits, in-visit wall time, BM refreshes, emitted
// effects).
func renderShardTables(res *core.Result, render func(*metrics.Table)) {
	ph := res.PhaseStats
	tp := &metrics.Table{
		Title:  "engine — wall time per phase",
		Header: []string{"phase", "total_ms"},
	}
	tp.AddRowf("allocate\t%.1f", float64(ph.Allocate)/1e6)
	tp.AddRowf("advance\t%.1f", float64(ph.Advance)/1e6)
	tp.AddRowf("playback\t%.1f", float64(ph.Playback)/1e6)
	tp.AddRowf("account\t%.1f", float64(ph.Account)/1e6)
	tp.AddRowf("control\t%.1f", float64(ph.Control)/1e6)
	tp.AddRowf("merge\t%.1f", float64(ph.Merge)/1e6)
	render(tp)

	ts := &metrics.Table{
		Title:  "engine — per-shard control load",
		Header: []string{"shard", "active_peers", "visits", "control_ms", "bm_refreshes", "effects"},
	}
	for _, s := range res.ShardStats {
		ts.AddRowf("%d\t%d\t%d\t%.1f\t%d\t%d",
			s.Shard, s.ActivePeers, s.Visits, float64(s.ControlNs)/1e6, s.BMRefreshes, s.Effects)
	}
	render(ts)
}

func resourceTable(seed uint64, render func(*metrics.Table)) error {
	t := &metrics.Table{
		Title:  "E13 — continuity vs resource index (critical value, §V-E)",
		Header: []string{"capacity_scale", "resource_index", "mean_continuity", "failed", "abandoned"},
	}
	for _, scale := range []float64{0.15, 0.3, 0.6, 1, 2, 4} {
		cfg := core.ResourceSweepConfig(scale, seed)
		cfg.Workload.Horizon = 8 * sim.Minute
		cfg.Params.ReportPeriod = 30 * sim.Second
		res, err := core.Run(cfg)
		if err != nil {
			return err
		}
		t.AddRowf("%.2f\t%.2f\t%.4f\t%d\t%d",
			scale, res.MeanResourceIndex(5), res.Analysis.MeanContinuity(),
			res.FailedSessions, res.AbandonSessions)
	}
	render(t)
	return nil
}

func allocatorTable(spec scaleSpec, seed uint64, render func(*metrics.Table)) error {
	t := &metrics.Table{
		Title:  "E14 — upload allocator: water-filling vs literal Eq. (5) equal split",
		Header: []string{"allocator", "mean_continuity", "ready_median_s", "ready_p90_s"},
	}
	for _, alloc := range []string{"waterfill", "equalsplit"} {
		cfg := core.SteadyConfig(spec.steadyRate, spec.steadyLen, seed)
		cfg.Servers = spec.servers
		cfg.Params.ReportPeriod = 30 * sim.Second
		cfg.Params.Allocator = alloc
		res, err := core.Run(cfg)
		if err != nil {
			return err
		}
		_, ready, _ := res.Analysis.StartupDelays()
		if ready.N() == 0 {
			t.AddRowf("%s\t%.4f\t-\t-", alloc, res.Analysis.MeanContinuity())
			continue
		}
		t.AddRowf("%s\t%.4f\t%.2f\t%.2f",
			alloc, res.Analysis.MeanContinuity(), ready.Median(), ready.Quantile(0.9))
	}
	render(t)
	return nil
}

// scaledReport keeps roughly 5-minute-equivalent reporting for a
// compressed day.
func scaledReport(day sim.Time) sim.Time {
	r := day / 288 // 5 min of a 24 h day
	if r < 10*sim.Second {
		r = 10 * sim.Second
	}
	return r
}

func eq36Table(render func(*metrics.Table)) error {
	m, err := analysis.NewModel(core.DefaultConfig().Params.Layout)
	if err != nil {
		return err
	}
	t := &metrics.Table{
		Title:  "Eqs. 3-4 — analytic vs fluid (E10)",
		Header: []string{"case", "l_blocks", "rate_bps", "analytic_s", "fluid_s", "rel_err"},
	}
	layout := core.DefaultConfig().Params.Layout
	r := xrand.New(42)
	for i := 0; i < 8; i++ {
		l := 10 + r.Float64()*50
		rate := layout.SubRateBps() * (1.3 + 2*r.Float64())
		want, err := m.CatchUpTime(l, rate)
		if err != nil {
			return err
		}
		got, _, err := analysis.FluidTransfer(layout, l, rate, 0.5, 1e12, 0.005, want*3+30)
		if err != nil {
			return err
		}
		t.AddRowf("catch-up\t%.1f\t%.0f\t%.2f\t%.2f\t%.3f", l, rate, want, got, rel(got, want))
	}
	for i := 0; i < 4; i++ {
		l := 5 + r.Float64()*20
		rate := layout.SubRateBps() * (0.2 + 0.6*r.Float64())
		want, err := m.AbandonTime(l, rate)
		if err != nil {
			return err
		}
		got, _, err := analysis.FluidTransfer(layout, 0.01, rate, 0.001, l, 0.005, want*3+30)
		if err != nil {
			return err
		}
		t.AddRowf("abandon\t%.1f\t%.0f\t%.2f\t%.2f\t%.3f", l, rate, want, got, rel(got, want))
	}
	render(t)

	// Eq. 6: P(lose) vs parent degree.
	t2 := &metrics.Table{
		Title:  "Eq. 6 — P(lose competition) vs parent degree (E10)",
		Header: []string{"degree", "p_lose"},
	}
	for _, d := range []int{1, 2, 4, 8, 16} {
		p, err := m.LoseProbability(d, 20, 20, analysis.UniformDeviationCCDF(20))
		if err != nil {
			return err
		}
		t2.AddRowf("%d\t%.3f", d, p)
	}
	render(t2)
	return nil
}

func treeTable(spec scaleSpec, seed uint64, render func(*metrics.Table)) error {
	cfg := core.SteadyConfig(spec.steadyRate, spec.steadyLen, seed)
	cfg.Servers = spec.servers
	cfg.Params.ReportPeriod = 30 * sim.Second
	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	tp := tree.DefaultParams()
	tp.RepairDelay = 10 * sim.Second
	tp.BufferSeconds = 5
	tp.RootDegree = 2 * spec.servers
	engine := sim.NewEngine(sim.Second)
	o, err := tree.NewOverlay(tp, engine, seed)
	if err != nil {
		return err
	}
	for _, s := range res.Scenario.Specs {
		s := s
		engine.Schedule(cfg.Warmup+s.At, func() {
			id := o.Join(s.Endpoint.UploadBps)
			engine.Schedule(cfg.Warmup+s.At+s.Watch, func() { o.Leave(id) })
		})
	}
	engine.Run(cfg.Horizon())

	t := &metrics.Table{
		Title:  "E11 — data-driven mesh vs single-tree baseline",
		Header: []string{"system", "continuity", "notes"},
	}
	t.AddRowf("coolstreaming-mesh\t%.4f\tmean reported CI", res.Analysis.MeanContinuity())
	t.AddRowf("single-tree\t%.4f\t%d repairs; %d rejections", o.Continuity(), o.Repairs, o.Rejections)
	render(t)
	return nil
}

func mcacheTable(spec scaleSpec, seed uint64, render func(*metrics.Table)) error {
	t := &metrics.Table{
		Title:  "E12 — mCache replacement policy under flash crowd",
		Header: []string{"policy", "ready_median_s", "ready_p90_s", "failed_sessions"},
	}
	for _, policy := range []string{"random", "stability"} {
		cfg := core.FlashCrowdConfig(3*sim.Minute, sim.Minute, 0.15, spec.burstRate, seed)
		cfg.MCachePolicy = policy
		cfg.Servers = spec.servers
		cfg.Params.ReportPeriod = 30 * sim.Second
		cfg.Params.BootstrapCandidates = 12
		cfg.Params.MCacheCapacity = 12
		res, err := core.Run(cfg)
		if err != nil {
			return err
		}
		_, ready, _ := res.Analysis.StartupDelays()
		if ready.N() == 0 {
			t.AddRowf("%s\t-\t-\t%d", policy, res.FailedSessions)
			continue
		}
		t.AddRowf("%s\t%.2f\t%.2f\t%d", policy, ready.Median(), ready.Quantile(0.9), res.FailedSessions)
	}
	render(t)
	return nil
}

func rel(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}
