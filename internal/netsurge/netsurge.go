// Package netsurge is the flash-crowd harness (§VI): it warms a small
// real-TCP overlay (tracker, source, a few established relays), then
// slams it with a burst of joiners several times the warm population
// and measures what the paper's Fig. 10 measures — whether joins
// succeed, how many retries they need, how long the first block takes —
// while ALSO watching what the crowd does to the peers that were
// already streaming.
//
// The harness runs the same storm twice: with the overload-degradation
// ladder on (partner caps with reject-with-alternates, upload slots,
// tracker shedding with retry-after) and with it off. Off, every
// joiner lane piles onto the best-advertised uplink — the source —
// whose shared token bucket then fair-shares its rate across several
// times the lanes it can sustain, dragging the established peers'
// continuity down with the crowd's. On, admission refuses the excess
// early and redirects it across the overlay, so the established swarm
// keeps its continuity and the crowd still gets in. The same harness
// backs the netsurge test suite and `coolnet -scenario surge`.
package netsurge

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/netboot"
	"coolstream/internal/netpeer"
)

// Config sizes one surge run. The zero value selects CI-friendly
// defaults (see applyDefaults).
type Config struct {
	// Warm is the established population (source excluded); Joiners is
	// the burst size (default 3 and 12 — a 4× flash crowd).
	Warm    int
	Joiners int
	// Ladder enables the admission-control ladder. Off reproduces the
	// collapse the ladder exists to prevent.
	Ladder bool
	// SourcePartners / PeerPartners cap partner sets when Ladder is on.
	SourcePartners int
	PeerPartners   int
	// SourceSlots / PeerSlots cap concurrent upload lanes when Ladder
	// is on.
	SourceSlots int
	PeerSlots   int
	// Warmup is the streaming time before the storm; Measure the
	// post-storm window established continuity is judged over.
	Warmup  time.Duration
	Measure time.Duration
	// JoinDeadline bounds each joiner's attempt.
	JoinDeadline time.Duration
	// Layout overrides the stream geometry (default 256 kbps, K=4,
	// 800-byte blocks, as netchaos).
	Layout buffer.Layout
	// Seed drives tracker sampling and join backoff jitter.
	Seed uint64
	// Logf, when set, receives run narration.
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.Warm <= 0 {
		c.Warm = 3
	}
	if c.Joiners <= 0 {
		c.Joiners = 4 * c.Warm
	}
	if c.SourcePartners <= 0 {
		c.SourcePartners = c.Warm + 2
	}
	if c.PeerPartners <= 0 {
		c.PeerPartners = 6
	}
	if c.SourceSlots <= 0 {
		c.SourceSlots = 16
	}
	if c.PeerSlots <= 0 {
		c.PeerSlots = 8
	}
	if c.Warmup <= 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 2 * time.Second
	}
	if c.JoinDeadline <= 0 {
		c.JoinDeadline = 12 * time.Second
	}
	if c.Layout.K == 0 {
		c.Layout = buffer.Layout{K: 4, RateBps: 256e3, BlockBytes: 800}
	}
}

// JoinOutcome is one joiner's result.
type JoinOutcome struct {
	ID    int32             `json:"id"`
	Stats netpeer.JoinStats `json:"stats"`
	Err   string            `json:"err,omitempty"`
}

// Report is the outcome of one surge run.
type Report struct {
	Ladder  bool `json:"ladder"`
	Warm    int  `json:"warm"`
	Joiners int  `json:"joiners"`

	// JoinSuccess is the joined fraction; JoinsPerMin the successful
	// join throughput over the storm.
	JoinSuccess float64 `json:"join_success"`
	JoinsPerMin float64 `json:"joins_per_min"`

	// Retries distribution across joiners (paper Fig. 10): per-joiner
	// retry counts, their p50/p90, and a histogram (index = retries,
	// last bucket open-ended).
	RetriesP50     int   `json:"retries_p50"`
	RetriesP90     int   `json:"retries_p90"`
	RetryHistogram []int `json:"retry_histogram"`

	// Time-to-first-block percentiles over successful joins, in ms.
	TTFBP50Ms float64 `json:"ttfb_p50_ms"`
	TTFBP90Ms float64 `json:"ttfb_p90_ms"`

	// Established-peer continuity over the storm+measure window: the
	// min and mean across the warm peers of on-time/total received
	// blocks since the pre-storm snapshot (0 when a peer stalled
	// outright). This is what the ladder protects.
	EstablishedMinContinuity  float64 `json:"established_min_continuity"`
	EstablishedMeanContinuity float64 `json:"established_mean_continuity"`

	// Ladder activity totals.
	Rejects            int `json:"rejects"`
	AlternatesLearned  int `json:"alternates_learned"`
	TrackerUnavailable int `json:"tracker_unavailable"`
	RetryAfterWaits    int `json:"retry_after_waits"`
	LaneRetries        int `json:"lane_retries"`

	Outcomes []JoinOutcome `json:"outcomes"`
}

// Pair is the before/after a surge comparison reports: the same storm
// with the ladder off and on.
type Pair struct {
	Off Report `json:"off"`
	On  Report `json:"on"`
}

// Run executes one surge scenario.
func Run(cfg Config) (Report, error) {
	cfg.applyDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// --- Tracker: shedding is the ladder's top rung. ---
	reg := netboot.NewRegistry(netboot.RegistryConfig{Seed: cfg.Seed})
	if cfg.Ladder {
		reg.EnableShedding(netboot.ShedConfig{
			MaxOpsPerSec: 60, RetryAfter: 250 * time.Millisecond,
		})
	}
	tracker := netboot.NewTCPServer(reg, netboot.TCPServerConfig{})
	trackerAddr, err := tracker.Listen("127.0.0.1:0")
	if err != nil {
		return Report{}, err
	}
	defer tracker.Close()
	logf("tracker at %s (ladder=%v)", trackerAddr, cfg.Ladder)

	var clients []*netboot.TCPClient
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	var clientMu sync.Mutex
	bootClient := func() *netboot.TCPClient {
		c := netboot.NewTCPClient(trackerAddr)
		c.SetTimeout(2 * time.Second)
		clientMu.Lock()
		clients = append(clients, c)
		clientMu.Unlock()
		return c
	}

	rate := cfg.Layout.RateBps
	nodeCfg := func(id int32, uploadBps float64, partners, slots int) netpeer.Config {
		c := netpeer.Config{
			ID: id, Layout: cfg.Layout, UploadBps: uploadBps,
			BMPeriod:     100 * time.Millisecond,
			BufferBlocks: 600, ReadyBlocks: 5,
			WriteTimeout: 2 * time.Second,
		}
		if cfg.Ladder {
			c.MaxPartners = partners
			c.UploadSlots = slots
		}
		return c
	}

	// --- Source. ---
	src, err := netpeer.New(nodeCfg(0, 5*rate, cfg.SourcePartners, cfg.SourceSlots))
	if err != nil {
		return Report{}, err
	}
	defer src.Close()
	srcAddr, err := src.Listen()
	if err != nil {
		return Report{}, err
	}
	if err := src.StartSource(); err != nil {
		return Report{}, err
	}
	if err := bootClient().Register(0, srcAddr); err != nil {
		return Report{}, fmt.Errorf("netsurge: register source: %w", err)
	}
	time.Sleep(300 * time.Millisecond) // let the live edge advance

	// --- Warm peers: the established swarm the storm must not sink. ---
	warm := make([]*netpeer.Node, 0, cfg.Warm)
	defer func() {
		for _, p := range warm {
			p.Close()
		}
	}()
	for i := 1; i <= cfg.Warm; i++ {
		id := int32(i)
		p, err := netpeer.New(nodeCfg(id, 3*rate, cfg.PeerPartners, cfg.PeerSlots))
		if err != nil {
			return Report{}, err
		}
		warm = append(warm, p)
		addr, err := p.Listen()
		if err != nil {
			return Report{}, err
		}
		if err := bootClient().Register(id, addr); err != nil {
			return Report{}, fmt.Errorf("netsurge: register warm %d: %w", id, err)
		}
		if _, err := p.Join(netpeer.JoinConfig{
			Boot: bootClient(), SelfAddr: addr,
			TargetPartners: 1, Deadline: 8 * time.Second,
		}); err != nil {
			return Report{}, fmt.Errorf("netsurge: warm %d join: %w", id, err)
		}
	}
	logf("%d warm peers streaming; warming up %v", cfg.Warm, cfg.Warmup)
	time.Sleep(cfg.Warmup)

	// Pre-storm snapshot: continuity is judged over the storm window.
	type snap struct{ onTime, total int64 }
	before := make([]snap, len(warm))
	for i, p := range warm {
		before[i].onTime, before[i].total = p.PlaybackStats()
	}

	// --- The storm: every joiner at once. ---
	joiners := make([]*netpeer.Node, cfg.Joiners)
	defer func() {
		for _, p := range joiners {
			if p != nil {
				p.Close()
			}
		}
	}()
	outcomes := make([]JoinOutcome, cfg.Joiners)
	stormStart := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Joiners; i++ {
		id := int32(100 + i)
		p, err := netpeer.New(nodeCfg(id, 3*rate, cfg.PeerPartners, cfg.PeerSlots))
		if err != nil {
			return Report{}, err
		}
		joiners[i] = p
		addr, err := p.Listen()
		if err != nil {
			return Report{}, err
		}
		wg.Add(1)
		go func(i int, id int32, addr string) {
			defer wg.Done()
			st, jerr := p.Join(netpeer.JoinConfig{
				Boot: bootClient(), SelfAddr: addr, Register: true,
				TargetPartners: 2, Deadline: cfg.JoinDeadline,
			})
			outcomes[i] = JoinOutcome{ID: id, Stats: st}
			if jerr != nil {
				outcomes[i].Err = jerr.Error()
			}
		}(i, id, addr)
	}
	wg.Wait()
	stormElapsed := time.Since(stormStart)
	logf("storm settled in %v; measuring %v", stormElapsed.Round(time.Millisecond), cfg.Measure)
	time.Sleep(cfg.Measure)

	// --- Report. ---
	rep := Report{
		Ladder: cfg.Ladder, Warm: cfg.Warm, Joiners: cfg.Joiners,
		Outcomes: outcomes,
	}
	joined := 0
	var retries []int
	var ttfb []float64
	for _, o := range outcomes {
		if o.Stats.Joined {
			joined++
			ttfb = append(ttfb, float64(o.Stats.TimeToFirstBlock)/float64(time.Millisecond))
		}
		retries = append(retries, o.Stats.Retries)
		rep.Rejects += o.Stats.Rejects
		rep.AlternatesLearned += o.Stats.AlternatesLearned
		rep.TrackerUnavailable += o.Stats.TrackerUnavailable
		rep.RetryAfterWaits += o.Stats.RetryAfterWaits
		rep.LaneRetries += o.Stats.LaneRetries
	}
	rep.JoinSuccess = float64(joined) / float64(cfg.Joiners)
	if sec := stormElapsed.Seconds(); sec > 0 {
		rep.JoinsPerMin = float64(joined) / sec * 60
	}
	sort.Ints(retries)
	rep.RetriesP50 = percentileInt(retries, 0.50)
	rep.RetriesP90 = percentileInt(retries, 0.90)
	rep.RetryHistogram = histogram(retries, 8)
	sort.Float64s(ttfb)
	rep.TTFBP50Ms = percentileFloat(ttfb, 0.50)
	rep.TTFBP90Ms = percentileFloat(ttfb, 0.90)

	rep.EstablishedMinContinuity = 1
	for i, p := range warm {
		onTime, total := p.PlaybackStats()
		dOn, dTotal := onTime-before[i].onTime, total-before[i].total
		ci := 0.0
		if dTotal > 0 {
			ci = float64(dOn) / float64(dTotal)
		}
		rep.EstablishedMeanContinuity += ci
		if ci < rep.EstablishedMinContinuity {
			rep.EstablishedMinContinuity = ci
		}
		logf("warm %d: storm-window continuity %.3f (%d/%d)", i+1, ci, dOn, dTotal)
	}
	rep.EstablishedMeanContinuity /= float64(len(warm))
	logf("join success %.2f (%d/%d), retries p50=%d p90=%d, ttfb p90=%.0fms, established min CI %.3f",
		rep.JoinSuccess, joined, cfg.Joiners, rep.RetriesP50, rep.RetriesP90,
		rep.TTFBP90Ms, rep.EstablishedMinContinuity)
	return rep, nil
}

// RunPair runs the same storm with the ladder off and on.
func RunPair(cfg Config) (Pair, error) {
	off := cfg
	off.Ladder = false
	offRep, err := Run(off)
	if err != nil {
		return Pair{}, fmt.Errorf("netsurge: ladder-off run: %w", err)
	}
	on := cfg
	on.Ladder = true
	onRep, err := Run(on)
	if err != nil {
		return Pair{}, fmt.Errorf("netsurge: ladder-on run: %w", err)
	}
	return Pair{Off: offRep, On: onRep}, nil
}

// percentileInt returns the nearest-rank percentile of sorted ints.
func percentileInt(sorted []int, q float64) int {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func percentileFloat(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// histogram buckets values at [0, 1, ..., cap-1, cap+] — the Fig. 10
// retries-to-join shape.
func histogram(values []int, buckets int) []int {
	h := make([]int, buckets+1)
	for _, v := range values {
		if v < 0 {
			v = 0
		}
		if v >= buckets {
			v = buckets
		}
		h[v]++
	}
	return h
}
