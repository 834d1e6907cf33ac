package main

import (
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/sim"
)

// sizes fixes every workload's inputs. fullSizes is what BENCHMARK.json
// runs; the smoke test shrinks them.
type sizes struct {
	// settle is the quiet period before each measured window.
	settle time.Duration

	// fluid_day: a compressed broadcast day.
	dayLength  sim.Time
	dayRate    float64
	dayServers int
	// setupRepeats is how many times the repeatable part of set-up runs
	// (setup_s counts it once, at its median). The live workloads build
	// that many swarms and give each an equal share of the window.
	setupRepeats int

	// fluid_steady: a settled synthetic population.
	steadyPeers  int
	steadyShards int
	steadyWarm   int
	steadyTicks  int

	// Live workloads: the measured window (all rounds together), its
	// sub-windows for the delay estimator, and the two swarms.
	window     time.Duration
	subWindows int
	swarm      swarmSpec
	swarmPeers int
	// swarmChurnEvery paces the leaf-leaves / newcomer-joins pairs
	// inside the window.
	swarmChurnEvery time.Duration
	fanout          swarmSpec
	fanoutPeers     int
}

// fullSizes returns the benchmark's sizes for a window of the given
// length. fluid_day is one fixed job — a day cannot be cut at a wall
// clock instant without changing what is simulated — so seconds only
// sets the live windows and fluid_steady's tick count.
func fullSizes(seconds int) sizes {
	return sizes{
		settle: 2 * time.Second,

		dayLength:    96 * sim.Minute,
		dayRate:      4,
		dayServers:   16,
		setupRepeats: 3,

		steadyPeers:  100000,
		steadyShards: 2,
		steadyWarm:   10,
		steadyTicks:  6 * seconds,

		window:     time.Duration(seconds) * time.Second,
		subWindows: 15,
		swarm: swarmSpec{
			layout:         buffer.Layout{K: 4, RateBps: 2e6, BlockBytes: 1250},
			bmPeriod:       100 * time.Millisecond,
			bufferBlocks:   2000,
			readyBlocks:    50,
			arity:          2,
			tracker:        true,
			sourcePartners: 2,
			sourceSlots:    8,
			peerPartners:   6,
			peerSlots:      0,
			adapt:          true,
			maintain:       true,
		},
		swarmPeers:      12,
		swarmChurnEvery: 2 * time.Second,
		fanout: swarmSpec{
			layout:       buffer.Layout{K: 16, RateBps: 8e6, BlockBytes: 1250},
			bmPeriod:     10 * time.Millisecond,
			bufferBlocks: 4000,
			readyBlocks:  100,
		},
		fanoutPeers: 8,
	}
}

// metricSpec names one metric and its unit. BENCHMARK.json carries the
// same lists plus direction and bound; the smoke test keeps them equal.
type metricSpec struct{ name, unit string }

// endToEnd is what the untraced pass reports, on every workload. The
// admission rule (README.md): a simulated-time outcome, a count
// normalised by work, a post-GC heap size, or the paced set-up time —
// never the host-time speed of CPU-bound code.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"continuity", "ratio"},
	{"allocs_per_op", "1/op"},
	{"alloc_bytes_per_op", "B/op"},
	{"heap_live_mb", "MiB"},
}

// perLayer is what the traced pass reports; the part before the first
// dot is the module. A metric whose layer a workload bypasses reads 0.
var perLayer = []metricSpec{
	// every workload: the share of delivered data the source tier
	// served (1 − P2P ratio); it spans layers, hence no module prefix
	{"source_share", "ratio"},
	// fluid_day
	{"core.run_s", "s"},
	{"core.sim_speed", "op/s"},
	{"core.sim_speed_spread", "ratio"},
	{"core.figures_s", "s"},
	{"core.startup_s_p50", "sim_s"},
	{"workload.generate_s", "s"},
	{"workload.sessions", "count"},
	{"logsys.records", "count"},
	{"logsys.bytes_per_record", "B"},
	{"logsys.encode_ns_per_record", "ns"},
	{"logsys.scan_ns_per_record", "ns"},
	{"logsys.encode_allocs_per_record", "1/op"},
	{"logsys.scan_allocs_per_record", "1/op"},
	{"metrics.analyze_s", "s"},
	{"metrics.stream_s", "s"},
	{"metrics.ns_per_record", "ns"},
	{"metrics.sessions", "count"},
	// fluid_steady
	{"peer.build_s", "s"},
	{"peer.tick_ms_p50", "ms"},
	{"peer.tick_ms_iqr", "ms"},
	{"peer.allocate_ms", "ms"},
	{"peer.advance_ms", "ms"},
	{"peer.playback_ms", "ms"},
	{"peer.account_ms", "ms"},
	{"peer.control_ms", "ms"},
	{"peer.drain_ms", "ms"},
	{"peer.merge_ms", "ms"},
	{"peer.control_visits_per_tick", "count"},
	{"peer.bm_refreshes_per_tick", "count"},
	{"peer.effects_per_tick", "count"},
	{"peer.shard_imbalance", "ratio"},
	{"peer.allocs_per_tick", "count"},
	{"peer.heap_bytes_per_peer", "B"},
	// live workloads: what the operator sees, then the data plane
	{"netpeer.block_delay_ms", "ms"},
	{"netpeer.block_delay_ms_p99", "ms"},
	{"netpeer.startup_s_p50", "s"},
	{"netpeer.writes_per_block", "1/op"},
	{"netpeer.wire_bytes_per_block", "B/op"},
	{"netpeer.frames_per_write", "ratio"},
	{"netpeer.bm_bytes_per_peer_s", "B/s"},
	{"netpeer.bm_share", "ratio"},
	{"netpeer.fan_shared_ratio", "ratio"},
	{"netpeer.block_overhead_bytes", "B"},
	{"netpeer.cpu_ms_per_kblock", "ms"},
	{"netpeer.goroutines_per_node", "count"},
	{"netpeer.heap_kb_per_node", "KiB"},
	{"netpeer.continuity_min", "ratio"},
	{"netpeer.depth_mean", "count"},
	{"netpeer.blocks_per_s", "1/s"},
	{"netpeer.lag_samples", "count"},
	// live_swarm: joining and membership
	{"netpeer.join_to_partner_ms_p50", "ms"},
	{"netpeer.join_ttfb_ms_p75", "ms"},
	{"netpeer.join_retries_mean", "count"},
	{"netpeer.rejects", "count"},
	{"netpeer.lane_retries", "count"},
	{"netpeer.partners_replaced", "count"},
	{"netpeer.stale_teardowns", "count"},
	{"netpeer.slow_partner_teardowns", "count"},
	{"netpeer.pacer_late_ms_max", "ms"},
	{"netboot.register_ms_p50", "ms"},
	{"netboot.candidates_ms_p50", "ms"},
	{"netboot.ops_per_join", "count"},
	{"netboot.unavailable", "count"},
	{"netboot.lease_renewals", "count"},
	// codec and buffer probes (a fixed frame mix, every traced pass)
	{"protocol.encode_ns_per_frame", "ns"},
	{"protocol.decode_ns_per_frame", "ns"},
	{"protocol.allocs_per_frame", "1/op"},
	{"buffer.receive_ns_per_block", "ns"},
	// the process
	{"proc.peak_rss_mb", "MiB"},
	{"proc.cpu_s", "s"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.trace_overhead", "ratio"},
}
