package core

import (
	"fmt"
	"hash/fnv"
	"runtime"

	"coolstream/internal/faults"
	"coolstream/internal/logsys"
	"coolstream/internal/metrics"
	"coolstream/internal/netmodel"
	"coolstream/internal/peer"
	"coolstream/internal/sim"
	"coolstream/internal/workload"
	"coolstream/internal/xrand"
)

// Result carries everything a run produced.
type Result struct {
	Config   Config
	Records  []logsys.Record
	Analysis *metrics.Analysis
	// Snapshots are periodic topology measurements (direct, not
	// log-derived — the simulator's privileged view for Fig. 4).
	Snapshots []peer.TopologySnapshot
	// Scenario is the workload that was applied.
	Scenario workload.Scenario

	// Counters copied from the world.
	JoinedSessions  int
	FailedSessions  int
	ReadySessions   int
	AbandonSessions int
	Adaptations     int
	// PeakConcurrent is the largest observed active peer count.
	PeakConcurrent int

	// FaultStats counts fault firings when a fault plan was configured.
	FaultStats faults.Stats
	// ShardStats and PhaseStats carry the per-shard control-plane load
	// and the per-phase wall-time split (phase metering is always on).
	ShardStats []peer.ShardStat
	PhaseStats peer.PhaseNanos
	// DroppedLogs counts reports lost to log-buffer overflow during
	// log-server outages; FlushedLogs counts reports delivered late at
	// run teardown (still pending when the horizon was reached).
	DroppedLogs int
	FlushedLogs int
}

// Digest folds every emitted log record, the run counters and the
// fault firing counters into one FNV-1a hash: two runs with equal
// digests behaved identically in every externally observable way,
// *including* which faults fired. This is the reproducibility check of
// the fault-injection contract (same seed + same plan ⇒ same digest).
func (r *Result) Digest() uint64 {
	h := fnv.New64a()
	for _, rec := range r.Records {
		fmt.Fprintln(h, rec.LogString())
	}
	fmt.Fprintf(h, "joined %d failed %d ready %d abandoned %d adapt %d peak %d\n",
		r.JoinedSessions, r.FailedSessions, r.ReadySessions,
		r.AbandonSessions, r.Adaptations, r.PeakConcurrent)
	fmt.Fprintf(h, "faults tracker %d nat %d kills %d dropped %d flushed %d\n",
		r.FaultStats.TrackerRefusals, r.FaultStats.NATRefusals,
		r.FaultStats.PartnerKills, r.DroppedLogs, r.FlushedLogs)
	return h.Sum64()
}

// Horizon returns the run's total virtual duration.
func (r *Result) Horizon() sim.Time { return r.Config.Horizon() }

// Run executes one full experiment: build the world, apply the
// workload, simulate to the horizon, and analyse the logs.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	policy, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	engine := sim.NewEngine(cfg.Tick)
	// The collecting sink is sharded: sequential phases log through the
	// mutex-guarded shared lane, parallel phases log lock-free into
	// per-shard lanes, and the end-of-run drain merges deterministically
	// by (time, peer, kind) — the same order MemorySink produced.
	sink := logsys.NewShardedSink(0)

	// Fault plan: the world consumes the schedule directly; log-server
	// outages additionally interpose the client-side report buffer
	// between the peers and the collecting sink.
	var schedule *faults.Schedule
	var buffered *logsys.BufferedSink
	worldSink := logsys.Sink(sink)
	if cfg.Faults.Enabled() {
		schedule, err = faults.NewSchedule(cfg.Faults)
		if err != nil {
			return nil, err
		}
		if len(cfg.Faults.LogOutages) > 0 {
			buffered = logsys.NewBufferedSink(sink, cfg.LogBufferCap, func(rec logsys.Record) bool {
				return schedule.LogDown(rec.At)
			})
			worldSink = buffered
		}
	}

	latency := netmodel.UniformLatency{Min: cfg.LatencyMin, Max: cfg.LatencyMax, Seed: cfg.Seed ^ 0x1a7e9c3}
	world, err := peer.NewWorld(cfg.Params, engine, worldSink, latency, policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	world.Faults = schedule
	world.Retry = cfg.Retry
	shards := cfg.Shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if err := world.SetShards(shards); err != nil {
		return nil, err
	}
	world.MeterPhases(true)
	world.LabelPhases(cfg.LabelPhases)
	if cfg.StallContinuity > 0 {
		world.StallContinuity = cfg.StallContinuity
		world.StallAbandonProb = cfg.StallAbandonProb
	}
	world.CrashProb = cfg.CrashProb
	for i := 0; i < cfg.Servers; i++ {
		world.AddServer(cfg.ServerUploadBps)
	}

	// Materialise the workload (or take the preset verbatim).
	var scenario workload.Scenario
	if cfg.PresetScenario != nil {
		scenario = *cfg.PresetScenario
	} else {
		scenRNG := xrand.New(cfg.Seed).SplitLabeled("scenario")
		scenario, err = workload.Generate(cfg.Workload, scenRNG)
		if err != nil {
			return nil, err
		}
	}
	for _, spec := range scenario.Specs {
		spec := spec
		engine.Schedule(cfg.Warmup+spec.At, func() {
			world.Join(spec.UserID, spec.Endpoint, spec.Watch, spec.Patience, 0)
		})
	}

	res := &Result{Config: cfg, Scenario: scenario}

	// Periodic topology snapshots and peak tracking.
	if cfg.SnapshotPeriod > 0 {
		var snapshotLoop func()
		snapshotLoop = func() {
			res.Snapshots = append(res.Snapshots, world.Snapshot())
			if engine.Now()+cfg.SnapshotPeriod <= cfg.Horizon() {
				engine.After(cfg.SnapshotPeriod, snapshotLoop)
			}
		}
		engine.After(cfg.SnapshotPeriod, snapshotLoop)
	}
	engine.OnTick(func(_, _ sim.Time) {
		if n := world.ActivePeerCount(); n > res.PeakConcurrent {
			res.PeakConcurrent = n
		}
	})

	engine.Run(cfg.Horizon())

	if buffered != nil {
		// Reports still queued when the run ends are delivered late at
		// teardown (the deployed reporter flushes on unload); overflow
		// losses stay lost and are surfaced as a counter.
		res.FlushedLogs = buffered.Flush()
		res.DroppedLogs = buffered.Dropped()
	}
	if schedule != nil {
		res.FaultStats = schedule.Stats
	}
	res.Records = sink.Drain()
	res.Analysis = metrics.Analyze(res.Records)
	res.JoinedSessions = world.JoinedSessions
	res.FailedSessions = world.FailedSessions
	res.ReadySessions = world.ReadySessions
	res.AbandonSessions = world.AbandonSessions
	res.Adaptations = world.Adaptations
	res.ShardStats = world.ShardStats()
	res.PhaseStats = world.PhaseStats()
	return res, nil
}
