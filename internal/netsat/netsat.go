// Package netsat is the data-plane saturation harness: it stands up a
// real-TCP star overlay (one source fanning the full stream out to N
// peers over internal/netpeer) at a deliberately hot block rate,
// measures a steady-state window, and reports the costs the batched
// plane keeps low — write syscalls and bytes per delivered block, and
// buffer-map signalling bytes per peer — next to the delivered
// continuity. Sweep grows the peer count until continuity collapses to
// find the sustainable population.
package netsat

import (
	"fmt"
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/netpeer"
)

// Config parameterises one saturation run.
type Config struct {
	// Peers is the number of full-stream children on the source.
	Peers int
	// Layout is the stream geometry; the default is intentionally hot
	// (8 Mbps in 16 sub-streams of 1250-byte blocks → 800 blocks/s per
	// child) so per-frame overheads dominate and batching is visible.
	// The fine striping also makes full buffer maps expensive (16×8-byte
	// lanes per exchange) — the regime BM deltas exist for.
	Layout buffer.Layout
	// BMPeriod is the buffer-map exchange period (default 10ms —
	// saturation-grade signalling, fast enough that only a few lanes
	// change per tick, which is where deltas pay off).
	BMPeriod time.Duration
	// FlushDelay overrides the writer linger (default 4ms: at 800
	// blocks/s a flush gathers ~3 block frames plus whatever control
	// traffic accumulated).
	FlushDelay time.Duration
	// Duration is the measured steady-state window (default 3s).
	Duration time.Duration
	// Settle is how long after the last join measurement starts
	// (default 500ms).
	Settle time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.Peers <= 0 {
		c.Peers = 8
	}
	if c.Layout.K == 0 {
		c.Layout = buffer.Layout{K: 16, RateBps: 8e6, BlockBytes: 1250}
	}
	if c.BMPeriod <= 0 {
		c.BMPeriod = 10 * time.Millisecond
	}
	if c.FlushDelay == 0 {
		c.FlushDelay = 4 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.Settle <= 0 {
		c.Settle = 500 * time.Millisecond
	}
}

// Report is one run's measurement. Totals are deltas over the measured
// window, summed across every node (source and peers).
type Report struct {
	Peers       int     `json:"peers"`
	DurationSec float64 `json:"duration_sec"`

	// Delivered counts blocks landed in peer sync buffers.
	Delivered uint64 `json:"delivered_blocks"`

	FramesSent  uint64 `json:"frames_sent"`
	WriteCalls  uint64 `json:"write_calls"`
	BytesSent   uint64 `json:"bytes_sent"`
	BMFrames    uint64 `json:"bm_frames"`
	BMBytes     uint64 `json:"bm_bytes"`
	BlockFrames uint64 `json:"block_frames"`
	BlockBytes  uint64 `json:"block_bytes"`
	FanEncodes  uint64 `json:"fan_encodes"`
	FanShared   uint64 `json:"fan_shared"`

	WritesPerBlock    float64 `json:"writes_per_block"`
	BytesPerBlock     float64 `json:"bytes_per_block"`
	BMBytesPerPeerSec float64 `json:"bm_bytes_per_peer_sec"`

	MeanContinuity float64 `json:"mean_continuity"`
	MinContinuity  float64 `json:"min_continuity"`
}

func sumStats(nodes []*netpeer.Node) netpeer.NetStats {
	var t netpeer.NetStats
	for _, n := range nodes {
		s := n.Stats()
		t.FramesSent += s.FramesSent
		t.WriteCalls += s.WriteCalls
		t.BytesSent += s.BytesSent
		t.BMFrames += s.BMFrames
		t.BMBytes += s.BMBytes
		t.BlockFrames += s.BlockFrames
		t.BlockBytes += s.BlockBytes
		t.FanEncodes += s.FanEncodes
		t.FanShared += s.FanShared
		t.BlocksReceived += s.BlocksReceived
	}
	return t
}

// Run executes one saturation measurement.
func Run(cfg Config) (Report, error) {
	cfg.setDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	mkConfig := func(id int32) netpeer.Config {
		return netpeer.Config{
			ID:           id,
			Layout:       cfg.Layout,
			BMPeriod:     cfg.BMPeriod,
			BufferBlocks: 4000,
			ReadyBlocks:  10,
			FlushDelay:   cfg.FlushDelay,
		}
	}
	src, err := netpeer.New(mkConfig(0))
	if err != nil {
		return Report{}, err
	}
	defer src.Close()
	addr, err := src.Listen()
	if err != nil {
		return Report{}, err
	}
	if err := src.StartSource(); err != nil {
		return Report{}, err
	}

	peers := make([]*netpeer.Node, 0, cfg.Peers)
	defer func() {
		for _, p := range peers {
			p.Close()
		}
	}()
	for i := 1; i <= cfg.Peers; i++ {
		p, err := netpeer.New(mkConfig(int32(i)))
		if err != nil {
			return Report{}, err
		}
		peers = append(peers, p)
		if _, err := p.Listen(); err != nil {
			return Report{}, err
		}
		if _, err := p.Connect(addr); err != nil {
			return Report{}, fmt.Errorf("peer %d connect: %w", i, err)
		}
		start := src.Latest(0) - 2
		if start < 0 {
			start = 0
		}
		if err := p.InitBuffers(start); err != nil {
			return Report{}, err
		}
		for j := 0; j < cfg.Layout.K; j++ {
			if err := p.SubscribeTracked(0, j, start); err != nil {
				return Report{}, fmt.Errorf("peer %d lane %d: %w", i, j, err)
			}
		}
	}
	logf("%d peers joined, settling %v", cfg.Peers, cfg.Settle)
	time.Sleep(cfg.Settle)

	all := append([]*netpeer.Node{src}, peers...)
	before := sumStats(all)
	t0 := time.Now()
	time.Sleep(cfg.Duration)
	after := sumStats(all)
	elapsed := time.Since(t0).Seconds()

	rep := Report{
		Peers:       cfg.Peers,
		DurationSec: elapsed,
		Delivered:   after.BlocksReceived - before.BlocksReceived,
		FramesSent:  after.FramesSent - before.FramesSent,
		WriteCalls:  after.WriteCalls - before.WriteCalls,
		BytesSent:   after.BytesSent - before.BytesSent,
		BMFrames:    after.BMFrames - before.BMFrames,
		BMBytes:     after.BMBytes - before.BMBytes,
		BlockFrames: after.BlockFrames - before.BlockFrames,
		BlockBytes:  after.BlockBytes - before.BlockBytes,
		FanEncodes:  after.FanEncodes - before.FanEncodes,
		FanShared:   after.FanShared - before.FanShared,
	}
	if rep.Delivered > 0 {
		rep.WritesPerBlock = float64(rep.WriteCalls) / float64(rep.Delivered)
		rep.BytesPerBlock = float64(rep.BytesSent) / float64(rep.Delivered)
	}
	if elapsed > 0 {
		rep.BMBytesPerPeerSec = float64(rep.BMBytes) / float64(cfg.Peers) / elapsed
	}
	rep.MeanContinuity, rep.MinContinuity = continuity(peers)
	logf("delivered %d blocks, %.2f writes/block, %.0f bytes/block, min CI %.3f",
		rep.Delivered, rep.WritesPerBlock, rep.BytesPerBlock, rep.MinContinuity)
	return rep, nil
}

func continuity(peers []*netpeer.Node) (mean, min float64) {
	if len(peers) == 0 {
		return 1, 1
	}
	min = 1
	for _, p := range peers {
		ci := p.Continuity()
		mean += ci
		if ci < min {
			min = ci
		}
	}
	return mean / float64(len(peers)), min
}

// Sweep doubles the peer count from start until the worst peer's
// continuity drops below minCI or maxPeers is reached, returning every
// run's report and the largest sustainable population (0 when even the
// first run collapsed).
func Sweep(base Config, start, maxPeers int, minCI float64) ([]Report, int, error) {
	if start <= 0 {
		start = 2
	}
	if maxPeers < start {
		maxPeers = start
	}
	var reps []Report
	sustainable := 0
	for n := start; n <= maxPeers; n *= 2 {
		cfg := base
		cfg.Peers = n
		rep, err := Run(cfg)
		if err != nil {
			return reps, sustainable, err
		}
		reps = append(reps, rep)
		if rep.MinContinuity < minCI {
			break
		}
		sustainable = n
	}
	return reps, sustainable, nil
}
