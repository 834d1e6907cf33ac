// Package core wires the full Coolstreaming reproduction together: it
// builds a World from a Config, drives a workload scenario through it,
// collects logs and topology snapshots, and exposes figure-builder
// methods that regenerate each of the paper's tables and figures from
// the collected measurements. This is the package the examples, CLI
// tools and benchmarks consume.
package core

import (
	"fmt"

	"coolstream/internal/faults"
	"coolstream/internal/gossip"
	"coolstream/internal/netmodel"
	"coolstream/internal/peer"
	"coolstream/internal/sim"
	"coolstream/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// Seed makes the whole run reproducible.
	Seed uint64
	// Params are the protocol parameters (Table I).
	Params peer.Params
	// Tick is the control-tick period of the hybrid simulator.
	Tick sim.Time
	// Servers is the dedicated-server count (the deployment used 24).
	Servers int
	// ServerUploadBps is each server's upload capacity.
	ServerUploadBps float64
	// LatencyMin/LatencyMax bound pairwise one-way delays.
	LatencyMin, LatencyMax sim.Time
	// MCachePolicy selects the membership replacement policy:
	// "random" (deployed) or "stability" (the paper's improvement).
	MCachePolicy string
	// Warmup runs the server tier alone before the first join so the
	// live edge is ahead of the Tp join shift.
	Warmup sim.Time
	// Drain keeps simulating after the last scheduled arrival so
	// sessions wind down.
	Drain sim.Time
	// Workload generates the user arrivals.
	Workload workload.Options
	// PresetScenario, when non-nil, is used verbatim instead of
	// generating arrivals from Workload (e.g. a scenario loaded from a
	// file via workload.ReadScenario). Its horizon replaces
	// Workload.Horizon.
	PresetScenario *workload.Scenario
	// SnapshotPeriod samples overlay topology (0 disables).
	SnapshotPeriod sim.Time
	// StallContinuity / StallAbandonProb configure frustrated-user
	// churn (see peer.World).
	StallContinuity  float64
	StallAbandonProb float64
	// SessionTimeScale records how much the workload compresses real
	// session durations (1 = real time). Analyses with real-time
	// cutoffs (e.g. the Fig. 10a "< 1 minute" spike) scale by it.
	SessionTimeScale float64
	// CrashProb is the fraction of user departures that are ungraceful
	// (no teardown; partners detect via failed BM exchanges).
	CrashProb float64
	// Faults is the deterministic fault-injection plan; the zero value
	// is fault-free (see internal/faults).
	Faults faults.Config
	// Retry is the capped-exponential join/re-contact backoff with
	// deterministic jitter; the zero value keeps the fixed
	// Params.RetryDelay.
	Retry faults.Backoff
	// LogBufferCap bounds the client-side report buffer used during
	// log-server outage windows (0 selects logsys.DefaultLogBuffer).
	LogBufferCap int
	// Shards partitions the world into that many shards, whose control
	// visits run in parallel (DESIGN.md §11); 0 means one per core
	// (runtime.GOMAXPROCS). It is a performance setting only: results
	// are identical for every value at any GOMAXPROCS.
	Shards int
	// LabelPhases tags every tick-phase worker with a runtime/pprof
	// label (phase=allocate/advance/playback/control/drain/merge) so a
	// CPU profile captured alongside the run splits by phase. Costs a
	// small per-worker-call allocation — tools enable it only when a
	// profile is actually being collected.
	LabelPhases bool
}

// ScaledCutoff converts a real-time duration to the workload's
// compressed time base.
func (c Config) ScaledCutoff(d sim.Time) sim.Time {
	if c.SessionTimeScale <= 0 || c.SessionTimeScale >= 1 {
		return d
	}
	return sim.Time(float64(d) * c.SessionTimeScale)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Tick <= 0 {
		return fmt.Errorf("core: tick %v", c.Tick)
	}
	if c.Servers < 1 {
		return fmt.Errorf("core: %d servers; the tier seeds the overlay", c.Servers)
	}
	if c.ServerUploadBps <= c.Params.Layout.RateBps {
		return fmt.Errorf("core: server upload %v must exceed the stream rate", c.ServerUploadBps)
	}
	if c.LatencyMax < c.LatencyMin || c.LatencyMin < 0 {
		return fmt.Errorf("core: latency bounds [%v,%v]", c.LatencyMin, c.LatencyMax)
	}
	if _, err := c.policy(); err != nil {
		return err
	}
	if c.Warmup < 0 || c.Drain < 0 {
		return fmt.Errorf("core: negative warmup/drain")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if c.LogBufferCap < 0 {
		return fmt.Errorf("core: LogBufferCap %d", c.LogBufferCap)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: Shards %d", c.Shards)
	}
	if c.PresetScenario != nil {
		if c.PresetScenario.Horizon <= 0 {
			return fmt.Errorf("core: preset scenario horizon %v", c.PresetScenario.Horizon)
		}
		return nil
	}
	return c.Workload.Validate()
}

func (c Config) policy() (gossip.Policy, error) {
	switch c.MCachePolicy {
	case "", "random":
		return gossip.RandomReplace{}, nil
	case "stability":
		return gossip.StabilityAware{}, nil
	}
	return nil, fmt.Errorf("core: unknown mCache policy %q", c.MCachePolicy)
}

// Horizon returns the total simulated duration.
func (c Config) Horizon() sim.Time {
	h := c.Workload.Horizon
	if c.PresetScenario != nil {
		h = c.PresetScenario.Horizon
	}
	return c.Warmup + h + c.Drain
}

// DefaultConfig returns a mid-sized steady-state configuration: a few
// hundred concurrent peers at a constant arrival rate — the starting
// point the presets below specialise.
func DefaultConfig() Config {
	p := peer.DefaultParams()
	horizon := 20 * sim.Minute
	return Config{
		Seed:             1,
		Params:           p,
		Tick:             sim.Second,
		Servers:          6,
		ServerUploadBps:  25 * p.Layout.RateBps, // ≈ 100 Mbps-class at 768 kbps... scaled tier
		LatencyMin:       20 * sim.Millisecond,
		LatencyMax:       250 * sim.Millisecond,
		MCachePolicy:     "random",
		Warmup:           30 * sim.Second,
		Drain:            2 * sim.Minute,
		SnapshotPeriod:   time30s,
		StallContinuity:  0.85,
		StallAbandonProb: 0.7,
		SessionTimeScale: 0.1,
		CrashProb:        0.3,
		Workload: workload.Options{
			Profile:  workload.Constant(0.5),
			Horizon:  horizon,
			Mix:      netmodel.DefaultClassMix(),
			Capacity: netmodel.DefaultCapacityProfile(p.Layout.RateBps),
			Sessions: workload.DefaultSessionModel(0.1),
		},
	}
}

const time30s = 30 * sim.Second

// DayConfig returns the compressed broadcast-day scenario standing in
// for the 2006-09-27 traces: a 24 h day compressed into `dayLength`
// with the Fig. 5 diurnal shape, evening flash crowd and 22:00
// program-end cliff. baseRate tunes population size.
func DayConfig(dayLength sim.Time, baseRate float64, seed uint64) Config {
	c := DefaultConfig()
	c.Seed = seed
	timeScale := float64(dayLength) / float64(24*sim.Hour)
	// Protocol timing (handshakes, buffering, Table I thresholds) does
	// not compress with the day, so session durations must not shrink
	// below the startup scale either: floor the session time scale at
	// 1/60 (durations as if the day were at most 60× compressed).
	sessionScale := timeScale
	if sessionScale < 1.0/60 {
		sessionScale = 1.0 / 60
	}
	c.Workload = workload.Options{
		Profile:    workload.DiurnalProfile(dayLength, baseRate, 6),
		Horizon:    dayLength,
		Mix:        netmodel.DefaultClassMix(),
		Capacity:   netmodel.DefaultCapacityProfile(c.Params.Layout.RateBps),
		Sessions:   workload.DefaultSessionModel(sessionScale),
		ProgramEnd: workload.ProgramEnd(dayLength),
		// (sessionScale is also recorded on the Config below.)
		EndJitter: sim.Time(float64(2*sim.Minute) * timeScale * 24),
	}
	c.Drain = dayLength / 24
	c.SessionTimeScale = sessionScale
	// Keep the 5-minute-of-real-day reporting cadence in compressed
	// time, with a floor so reports stay meaningful.
	c.Params.ReportPeriod = dayLength / 288
	if c.Params.ReportPeriod < 10*sim.Second {
		c.Params.ReportPeriod = 10 * sim.Second
	}
	return c
}

// FlashCrowdConfig returns a warm steady system hit by an arrival
// burst — the Fig. 7 / Fig. 9b regime. burstRate is in joins/second.
func FlashCrowdConfig(warm, burst sim.Time, quietRate, burstRate float64, seed uint64) Config {
	c := DefaultConfig()
	c.Seed = seed
	c.Workload.Profile = workload.FlashCrowd(warm, burst, quietRate, burstRate)
	c.Workload.Horizon = warm + burst + warm
	return c
}

// ChaosConfig returns the fault-injection scenario: a steady arrival
// stream hit by a mid-run tracker outage, a log-server outage, NAT
// refusals, mid-session partner kills and a burst-loss window, with
// capped-exponential join backoff. Sized so users joining inside the
// tracker outage fail and retry several times (a non-degenerate
// Fig. 10-style retry histogram) while earlier joiners succeed at once.
func ChaosConfig(seed uint64) Config {
	c := DefaultConfig()
	c.Seed = seed
	c.Workload.Profile = workload.Constant(0.8)
	c.Workload.Horizon = 5 * sim.Minute
	c.Drain = sim.Minute
	// A short join timeout makes each tracker-outage failure cheap, so
	// one outage window produces multi-failure users.
	c.Params.JoinTimeout = 15 * sim.Second
	c.Retry = faults.Backoff{Base: 2 * sim.Second, Cap: 20 * sim.Second, JitterFrac: 0.5}
	c.Faults = faults.Config{
		// Warmup is 30s, so arrivals span [30s, 330s): the outage
		// catches roughly a quarter of them mid-join.
		TrackerOutages:  []faults.Window{{Start: 70 * sim.Second, End: 160 * sim.Second}},
		LogOutages:      []faults.Window{{Start: 3 * sim.Minute, End: 210 * sim.Second}},
		NATRefusalProb:  0.02,
		PartnerKillRate: 0.2,
		BurstLoss: []faults.LossWindow{
			{Window: faults.Window{Start: 220 * sim.Second, End: 250 * sim.Second}, Frac: 0.5},
		},
	}
	return c
}

// SteadyConfig returns a constant-arrival configuration whose
// stationary population scales with rate (Little's law: rate × mean
// session duration).
func SteadyConfig(rate float64, horizon sim.Time, seed uint64) Config {
	c := DefaultConfig()
	c.Seed = seed
	c.Workload.Profile = workload.Constant(rate)
	c.Workload.Horizon = horizon
	return c
}
