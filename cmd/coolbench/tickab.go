package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"coolstream/internal/metrics"
	"coolstream/internal/peer"
	"coolstream/internal/sim"
)

// tickab.go — the interleaved tick A/B harness behind `coolbench
// -tickab`. Sequential benchmarking (all of variant A, then all of
// variant B) confounds the comparison with everything that drifts
// across a multi-minute run: CPU frequency, co-tenant load, page
// cache state. BENCH_scale.json once carried a pr6_same_session note
// for exactly that drift. This harness builds one settled synthetic
// world per shard-count variant, then alternates short measurement
// windows A, B, A, B, ... within a single process, so slow drift
// lands on every variant equally; per-variant medians across rounds
// with the min-max spread make the residual noise visible instead of
// silently folded into the mean.
//
// The worlds advance the same virtual time in lockstep (one window =
// `ticks` engine ticks for every variant in every round), so
// per-round comparisons always face identical due-wheel and
// BM-refresh populations.
//
// Memory rides along: mallocs_per_tick is the runtime's malloc count
// across each measurement window — the settled tick is meant to make
// none — and heap_bytes_per_peer is a world's share of the post-GC
// live heap over its active peers, taken after the last round (when
// its mCaches and due-wheels have been through every window) by
// dropping the worlds one at a time.

// tickabSample is one measurement window of one variant.
type tickabSample struct {
	wallNs  int64
	phases  peer.PhaseNanos
	visits  int64
	mallocs uint64
}

// tickabVariantOut is the per-variant block of the JSON report.
type tickabVariantOut struct {
	Shards          int              `json:"shards"`
	Rounds          int              `json:"rounds"`
	NsPerTickMedian float64          `json:"ns_per_tick_median"`
	NsPerTickMin    float64          `json:"ns_per_tick_min"`
	NsPerTickMax    float64          `json:"ns_per_tick_max"`
	SpreadFrac      float64          `json:"spread_frac"`
	PhaseNsMedian   map[string]int64 `json:"phase_ns_per_tick_median"`
	MergeShare      float64          `json:"merge_share"`
	DrainShare      float64          `json:"drain_share"`
	VisitsPerTick   float64          `json:"visits_per_tick"`
	ActivePeers     int              `json:"active_peers"`
	HeapPerPeer     float64          `json:"heap_bytes_per_peer"`
	MallocsPerTick  float64          `json:"mallocs_per_tick"`
}

type tickabOut struct {
	Bench          string             `json:"bench"`
	Peers          int                `json:"peers"`
	TicksPerWindow int                `json:"ticks_per_window"`
	Rounds         int                `json:"rounds"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	Variants       []tickabVariantOut `json:"variants"`
}

func tickabBench(peers int, shardsCSV string, rounds, ticks int, jsonPath string) error {
	if rounds < 1 || ticks < 1 {
		return fmt.Errorf("tickab needs -count >= 1 and -tickabticks >= 1 (got %d, %d)", rounds, ticks)
	}
	var shardCounts []int
	for _, f := range strings.Split(shardsCSV, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return fmt.Errorf("bad -tickabshards entry %q", f)
		}
		shardCounts = append(shardCounts, v)
	}
	if len(shardCounts) == 0 {
		return fmt.Errorf("-tickabshards is empty")
	}

	type variant struct {
		shards  int
		w       *peer.World
		engine  *sim.Engine
		samples []tickabSample
		active  int
		heap    uint64
	}
	variants := make([]*variant, 0, len(shardCounts))
	for _, s := range shardCounts {
		fmt.Fprintf(os.Stderr, "# tickab: building %d-peer synthetic world, %d shard(s)...\n", peers, s)
		w, engine, err := peer.NewSyntheticWorld(peers, s)
		if err != nil {
			return err
		}
		w.MeterPhases(true)
		variants = append(variants, &variant{shards: s, w: w, engine: engine})
	}

	window := func(v *variant) tickabSample {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ph0, vis0 := v.w.PhaseStats(), v.w.ControlVisits
		t0 := time.Now()
		for i := 0; i < ticks; i++ {
			v.engine.Run(v.engine.Now() + sim.Second)
		}
		wall := time.Since(t0).Nanoseconds()
		ph1 := v.w.PhaseStats()
		runtime.ReadMemStats(&ms1)
		return tickabSample{
			mallocs: ms1.Mallocs - ms0.Mallocs,
			wallNs:  wall,
			phases: peer.PhaseNanos{
				Allocate: ph1.Allocate - ph0.Allocate,
				Advance:  ph1.Advance - ph0.Advance,
				Playback: ph1.Playback - ph0.Playback,
				Account:  ph1.Account - ph0.Account,
				Control:  ph1.Control - ph0.Control,
				Drain:    ph1.Drain - ph0.Drain,
				Merge:    ph1.Merge - ph0.Merge,
			},
			visits: v.w.ControlVisits - vis0,
		}
	}

	// One untimed warm window per variant: first-touch page faults and
	// due-wheel priming are construction artifacts, not tick cost.
	for _, v := range variants {
		window(v)
	}
	for r := 0; r < rounds; r++ {
		for _, v := range variants {
			s := window(v)
			v.samples = append(v.samples, s)
			fmt.Fprintf(os.Stderr, "# round %d shards=%d: %.1f ms/tick\n",
				r+1, v.shards, float64(s.wallNs)/float64(ticks)/1e6)
		}
	}

	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	live := liveHeap()
	for _, v := range variants {
		v.active = v.w.ActivePeerCount()
		v.w, v.engine = nil, nil
		rest := liveHeap()
		v.heap, live = live-rest, rest
	}

	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		n := len(xs)
		if n%2 == 1 {
			return xs[n/2]
		}
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	collect := func(v *variant, pick func(tickabSample) float64) []float64 {
		out := make([]float64, len(v.samples))
		for i, s := range v.samples {
			out[i] = pick(s) / float64(ticks)
		}
		return out
	}

	out := tickabOut{
		Bench:          "tickab",
		Peers:          peers,
		TicksPerWindow: ticks,
		Rounds:         rounds,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
	}
	t := &metrics.Table{
		Title: "tick A/B — interleaved windows, median over rounds",
		Header: []string{"shards", "ms_per_tick", "spread", "alloc_ms", "advance_ms",
			"playback_ms", "control_ms", "drain_ms", "merge_ms", "merge_share", "visits",
			"heap_B_per_peer", "mallocs_per_tick"},
	}
	for _, v := range variants {
		walls := collect(v, func(s tickabSample) float64 { return float64(s.wallNs) })
		med := median(append([]float64(nil), walls...))
		min, max := walls[0], walls[0]
		for _, x := range walls[1:] {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		phase := func(pick func(peer.PhaseNanos) int64) float64 {
			return median(collect(v, func(s tickabSample) float64 { return float64(pick(s.phases)) }))
		}
		alloc := phase(func(p peer.PhaseNanos) int64 { return p.Allocate })
		advance := phase(func(p peer.PhaseNanos) int64 { return p.Advance })
		playback := phase(func(p peer.PhaseNanos) int64 { return p.Playback })
		account := phase(func(p peer.PhaseNanos) int64 { return p.Account })
		control := phase(func(p peer.PhaseNanos) int64 { return p.Control })
		drain := phase(func(p peer.PhaseNanos) int64 { return p.Drain })
		merge := phase(func(p peer.PhaseNanos) int64 { return p.Merge })
		visits := median(collect(v, func(s tickabSample) float64 { return float64(s.visits) }))
		mallocs := median(collect(v, func(s tickabSample) float64 { return float64(s.mallocs) }))
		spread := 0.0
		if med > 0 {
			spread = (max - min) / med
		}
		vo := tickabVariantOut{
			Shards:          v.shards,
			Rounds:          rounds,
			NsPerTickMedian: med,
			NsPerTickMin:    min,
			NsPerTickMax:    max,
			SpreadFrac:      spread,
			PhaseNsMedian: map[string]int64{
				"allocate": int64(alloc), "advance": int64(advance),
				"playback": int64(playback), "account": int64(account),
				"control": int64(control), "drain": int64(drain), "merge": int64(merge),
			},
			VisitsPerTick:  visits,
			ActivePeers:    v.active,
			HeapPerPeer:    float64(v.heap) / float64(v.active),
			MallocsPerTick: mallocs,
		}
		if med > 0 {
			vo.MergeShare = merge / med
			vo.DrainShare = drain / med
		}
		out.Variants = append(out.Variants, vo)
		t.AddRowf("%d\t%.1f\t±%.0f%%\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\t%.4f\t%.0f\t%.0f\t%.1f",
			v.shards, med/1e6, spread*100/2, alloc/1e6, advance/1e6, playback/1e6,
			control/1e6, drain/1e6, merge/1e6, vo.MergeShare, visits, vo.HeapPerPeer, mallocs)
	}
	t.Render(os.Stdout)
	fmt.Println()

	if jsonPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}
