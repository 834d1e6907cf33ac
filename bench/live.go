package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"coolstream/bench/stat"
	"coolstream/internal/buffer"
	"coolstream/internal/netboot"
	"coolstream/internal/netpeer"
)

// swarmSpec is one live overlay's geometry and policy. Both live
// workloads build their overlay from it through the same swarm type;
// plane settings it does not name (linger, flush and queue sizes,
// keyframe period) stay at netpeer's defaults so a change of default
// shows up here.
type swarmSpec struct {
	layout       buffer.Layout
	bmPeriod     time.Duration
	bufferBlocks int64
	readyBlocks  int64
	// arity shapes the established overlay: each node feeds that many
	// full-stream children (0: the source feeds everyone, a star).
	arity int
	// tracker starts a TCP tracker every peer registers with; window
	// newcomers then arrive through it and Node.Join.
	tracker bool
	// Admission limits (0 = unlimited).
	sourcePartners, sourceSlots int
	peerPartners, peerSlots     int
	adapt, maintain             bool
}

const (
	sourceID         = int32(0)
	joinPartners     = 2
	maintainPartners = 3
	joinDeadline     = 8 * time.Second
	// The §IV-B thresholds in per-sub-stream blocks: half a second and
	// a second of stream at live_swarm's 50 blocks/s per sub-stream,
	// the same stream time coolnet's 10/20 are at its 19 blocks/s.
	adaptTs, adaptTp = 25, 50
	// deliveryFloor is the share of the blocks due that every peer's
	// contiguous prefix must have advanced by.
	deliveryFloor = 0.98
)

// bootStats accumulates what the tracker clients of one swarm saw.
type bootStats struct {
	mu           sync.Mutex
	registerMs   []float64
	candidatesMs []float64
	ops          int
}

// timedBoot is the netpeer.Bootstrap handed to Join and
// EnableMaintenance: a TCP tracker client whose calls are timed.
type timedBoot struct {
	inner *netboot.TCPClient
	st    *bootStats
}

func (b *timedBoot) note(ms *[]float64, t0 time.Time, err error) {
	d := float64(time.Since(t0).Nanoseconds()) / 1e6
	b.st.mu.Lock()
	b.st.ops++
	if err == nil && ms != nil {
		*ms = append(*ms, d)
	}
	b.st.mu.Unlock()
}

func (b *timedBoot) Register(id int32, addr string) error {
	t0 := time.Now()
	err := b.inner.Register(id, addr)
	b.note(&b.st.registerMs, t0, err)
	return err
}

func (b *timedBoot) Leave(id int32) error {
	t0 := time.Now()
	err := b.inner.Leave(id)
	b.note(nil, t0, err)
	return err
}

func (b *timedBoot) Candidates(n int, exclude int32) ([]netboot.Entry, error) {
	t0 := time.Now()
	es, err := b.inner.Candidates(n, exclude)
	b.note(&b.st.candidatesMs, t0, err)
	return es, err
}

// SetStop lets netpeer abort a backoff pause when the node shuts down.
func (b *timedBoot) SetStop(stop <-chan struct{}) { b.inner.SetStop(stop) }

// reading is one node's cumulative counters at an instant, next to the
// source's position at the same instant.
type reading struct {
	stats         netpeer.NetStats
	onTime, total int64
	combined      int64
	srcCombined   int64
	rec           netpeer.RecoveryStats
}

// member is one node of the swarm with its join record and the two
// readings that bracket its presence in the measured window.
type member struct {
	id      int32
	node    *netpeer.Node
	boot    *timedBoot
	join    netpeer.JoinStats
	startup time.Duration
	// first is taken when the window opens, or for a newcomer when its
	// playback starts (its counters then count from zero: the join's
	// own traffic belongs to the window, but no block is due to a
	// player that has not started); last when it leaves or the window
	// closes. streaming says first was taken.
	first, last reading
	streaming   bool
}

// swarm is a running overlay: optional tracker, a source, the placed
// peers, and newcomers that come and go. The pacing goroutine is the
// only one that changes membership; the sampling goroutine reads the
// member list.
type swarm struct {
	spec swarmSpec
	seed uint64
	tr   *tracer
	// parent is the span that join and close spans are recorded under:
	// the set-up span, then the window span.
	parent int

	tracker     *netboot.TCPServer
	trackerAddr string
	src         *member

	nextID int32
	// joinsAttempted/joinsFailed count every arrival, placed or joined.
	joinsAttempted, joinsFailed int

	mu       sync.Mutex
	members  []*member // present; replaced, never edited in place
	departed []*member

	boot bootStats
}

func (s *swarm) nodeConfig(id int32) netpeer.Config {
	c := netpeer.Config{
		ID:           id,
		Layout:       s.spec.layout,
		BMPeriod:     s.spec.bmPeriod,
		BufferBlocks: s.spec.bufferBlocks,
		ReadyBlocks:  s.spec.readyBlocks,
		MaxPartners:  s.spec.peerPartners,
		UploadSlots:  s.spec.peerSlots,
	}
	if id == sourceID {
		c.MaxPartners, c.UploadSlots = s.spec.sourcePartners, s.spec.sourceSlots
	}
	return c
}

func (s *swarm) newBoot() *timedBoot {
	c := netboot.NewTCPClient(s.trackerAddr)
	c.SetTimeout(2 * time.Second)
	return &timedBoot{inner: c, st: &s.boot}
}

// newSwarm starts the tracker (if the spec has one) and the source.
func newSwarm(p *pass, spec swarmSpec) (*swarm, error) {
	s := &swarm{spec: spec, seed: p.seed, tr: p.tr, parent: p.root, nextID: 1}
	if spec.tracker {
		reg := netboot.NewRegistry(netboot.RegistryConfig{Seed: p.seed})
		s.tracker = netboot.NewTCPServer(reg, netboot.TCPServerConfig{})
		addr, err := s.tracker.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.trackerAddr = addr
	}
	node, err := netpeer.New(s.nodeConfig(sourceID))
	if err != nil {
		s.close()
		return nil, err
	}
	s.src = &member{id: sourceID, node: node}
	if _, err := node.Listen(); err != nil {
		s.close()
		return nil, err
	}
	if err := node.StartSource(); err != nil {
		s.close()
		return nil, err
	}
	if spec.tracker {
		// One registration lasts: a swarm lives for set-up plus a third
		// of the window, under the registry's 30 s lease at any
		// --seconds the contract allows (60 at most).
		s.src.boot = s.newBoot()
		if err := s.src.boot.Register(sourceID, node.Addr()); err != nil {
			s.close()
			return nil, fmt.Errorf("register source: %w", err)
		}
	}
	return s, nil
}

// close stops every node still running and the tracker, then releases
// the nodes: the members keep their readings, and a closed swarm holds
// no buffers while the next one is measured. Call it only after the
// sampling goroutine has ended — that one still reads departed nodes.
func (s *swarm) close() {
	everyone := append(append([]*member{s.src}, s.members...), s.departed...)
	for _, m := range everyone {
		if m != nil && m.node != nil {
			m.stop()
			m.node = nil
		}
	}
	if s.tracker != nil {
		s.tracker.Close()
		s.tracker = nil
	}
}

// stop closes the member's node gracefully. The node stays referenced:
// a closed node still answers the sampler's reads.
func (m *member) stop() {
	m.node.Close()
	if m.boot != nil {
		m.boot.inner.Close()
	}
}

// newMember creates the next node and its tracker client.
func (s *swarm) newMember() (*member, string, error) {
	id := s.nextID
	s.nextID++
	s.joinsAttempted++
	node, err := netpeer.New(s.nodeConfig(id))
	if err != nil {
		return nil, "", err
	}
	m := &member{id: id, node: node}
	addr, err := node.Listen()
	if err != nil {
		node.Close()
		return nil, "", err
	}
	if s.spec.tracker {
		m.boot = s.newBoot()
	}
	return m, addr, nil
}

// admit starts the member's adaptation and maintenance loops and adds
// it to the member list.
func (s *swarm) admit(m *member) error {
	if s.spec.adapt {
		m.node.EnableAdaptation(netpeer.AdaptConfig{
			Ts: adaptTs, Tp: adaptTp, Ta: time.Second, Check: 250 * time.Millisecond,
			Seed: s.seed + uint64(m.id),
		})
	}
	if s.spec.maintain {
		if err := m.node.EnableMaintenance(netpeer.ManagerConfig{
			TargetPartners: maintainPartners, Seed: s.seed,
		}, m.boot); err != nil {
			m.stop()
			return err
		}
	}
	s.mu.Lock()
	s.members = append(append([]*member(nil), s.members...), m)
	s.mu.Unlock()
	return nil
}

// join brings one newcomer in through the tracker and Node.Join and
// returns once it receives blocks. A failed join is counted, not
// fatal: it lowers ok_ratio.
func (s *swarm) join() error {
	m, addr, err := s.newMember()
	if err != nil {
		return err
	}
	sp := s.tr.begin("netpeer.Join", s.parent)
	m.join, err = m.node.Join(netpeer.JoinConfig{
		Boot: m.boot, SelfAddr: addr, Register: true,
		TargetPartners: joinPartners, Deadline: joinDeadline,
	})
	m.startup = m.join.TimeToFirstBlock
	s.tr.end(sp)
	if err != nil {
		s.joinsFailed++
		m.stop()
		return nil
	}
	return s.admit(m)
}

// place makes a new node a full-stream child of parent — dial, start
// two blocks behind the parent's head, subscribe every lane — and
// registers it with the tracker if there is one.
func (s *swarm) place(parent *member) (*member, error) {
	m, addr, err := s.newMember()
	if err != nil {
		return nil, err
	}
	sp := s.tr.begin("netpeer.Connect+Subscribe", s.parent)
	defer s.tr.end(sp)
	if _, err := m.node.Connect(parent.node.Addr()); err != nil {
		m.stop()
		return nil, fmt.Errorf("peer %d under %d: %w", m.id, parent.id, err)
	}
	start := max(parent.node.Latest(0)-2, 0)
	if err := m.node.InitBuffers(start); err != nil {
		m.stop()
		return nil, err
	}
	for j := 0; j < s.spec.layout.K; j++ {
		if err := m.node.SubscribeTracked(parent.id, j, start); err != nil {
			m.stop()
			return nil, err
		}
	}
	if m.boot != nil {
		if err := m.boot.Register(m.id, addr); err != nil {
			m.stop()
			return nil, fmt.Errorf("register peer %d: %w", m.id, err)
		}
	}
	return m, s.admit(m)
}

// populate builds the established overlay: a tree of the spec's arity
// under the source (arity 0: everyone under the source, a star), every
// peer drawing all its lanes from its parent, then waits until every
// peer's playback has started. The shape is fixed on purpose: which
// relays re-encode a block decides allocations per delivered block, and
// an overlay grown through Join takes another shape on every run
// (README, sizing notes). Newcomers in the window do go through Join.
func (s *swarm) populate(peers int) error {
	t0 := time.Now()
	placed := make([]*member, 0, peers)
	for k := 0; k < peers; k++ {
		parent := s.src
		if a := s.spec.arity; a > 0 && k >= a {
			parent = placed[(k-a)/a]
		}
		m, err := s.place(parent)
		if err != nil {
			return err
		}
		placed = append(placed, m)
	}
	deadline := t0.Add(joinDeadline)
	for _, m := range placed {
		for !m.node.Ready() {
			if time.Now().After(deadline) {
				return fmt.Errorf("peer %d never started playback", m.id)
			}
			time.Sleep(time.Millisecond)
		}
		m.startup = time.Since(t0)
	}
	return nil
}

// read takes a member's cumulative counters now.
func (s *swarm) read(m *member) reading {
	r := reading{stats: m.node.Stats(), rec: m.node.Recovery()}
	r.onTime, r.total = m.node.PlaybackStats()
	r.srcCombined = s.src.node.Combined()
	r.combined = m.node.Combined()
	return r
}

// snapshot returns the current member list (shared, read-only).
func (s *swarm) snapshot() []*member {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.members
}

// removeLeaf retires the most recently arrived peer whose playback has
// started and that no other peer draws a lane from (failing that, the
// started peer with the fewest child lanes), closing it gracefully.
// Last in, first out keeps the
// established tree intact: after the first event the peer that leaves
// is the previous newcomer, the short session the paper's traces are
// full of.
func (s *swarm) removeLeaf() {
	members := s.snapshot()
	if len(members) == 0 {
		return
	}
	children := make(map[int32]int, len(members))
	for _, m := range members {
		for j := 0; j < s.spec.layout.K; j++ {
			if pid := m.node.LaneParent(j); pid > sourceID {
				children[pid]++
			}
		}
	}
	fewest := math.MaxInt
	var gone *member
	for _, m := range members {
		c := children[m.id]
		if !m.node.Ready() {
			c += len(members) * s.spec.layout.K // behind every started peer
		}
		if c <= fewest { // members are in arrival order: ties go to the latest
			fewest, gone = c, m
		}
	}
	gone.last = s.read(gone)
	rest := make([]*member, 0, len(members)-1)
	for _, m := range members {
		if m != gone {
			rest = append(rest, m)
		}
	}
	s.mu.Lock()
	s.members = rest
	s.departed = append(s.departed, gone)
	s.mu.Unlock()
	sp := s.tr.begin("netpeer.Close", s.parent)
	gone.stop()
	s.tr.end(sp)
}

// depthMean is the mean number of hops from the source over every
// present peer's lanes, following LaneParent.
func (s *swarm) depthMean() float64 {
	members := s.snapshot()
	byID := make(map[int32]*member, len(members))
	for _, m := range members {
		byID[m.id] = m
	}
	var sum, n float64
	for _, m := range members {
		for j := 0; j < s.spec.layout.K; j++ {
			depth, at := 0, m
			for at != nil && depth <= len(members) {
				depth++
				pid := at.node.LaneParent(j)
				if pid == sourceID {
					sum += float64(depth)
					n++
					break
				}
				at = byID[pid]
			}
		}
	}
	return ratio(sum, n)
}

// liveRound is one swarm and what its share of the measured window
// produced. The window is split evenly over setupRepeats swarms built
// one after another: every build is one of the several set-ups setup_s
// is the median of, and a stall in one swarm costs its share of the
// window, not all of it.
type liveRound struct {
	s           *swarm
	setupS      float64
	elapsed     float64
	pacerLateMs float64
	mem         memMark
	heapMiB     float64
	cpuS        float64
	goroutines  int
	nodes       int
	depth       float64
}

// measure runs this swarm's share of the window, the round-th of
// rounds: this goroutine paces (churn events on a fixed schedule, timed
// from when each was due), one more samples the source→peer lag of
// every started peer at seeded random 1–7 ms pauses into lag.
func (s *swarm) measure(p *pass, r *liveRound, lag *stat.Lag, round, rounds int, churnEvery time.Duration) error {
	window := p.sz.window / time.Duration(rounds)

	s.src.first = s.read(s.src)
	for _, m := range s.snapshot() {
		m.first, m.streaming = s.read(m), true
	}
	cpu0 := cpuSeconds()
	m0 := readMem()
	span := s.tr.begin("bench.window", p.root)
	s.parent = span
	t0 := time.Now()

	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		pause := stat.NewSampler(p.seed+uint64(round), time.Millisecond, 7*time.Millisecond)
		for {
			time.Sleep(pause.Next()) // Sleep, not time.After: no allocation in the window
			select {
			case <-stop:
				return
			default:
			}
			frac := (float64(round) + float64(time.Since(t0))/float64(window)) / float64(rounds)
			for _, m := range s.snapshot() {
				if !m.streaming {
					if !m.node.Ready() {
						continue
					}
					m.first = reading{combined: m.node.Combined(), srcCombined: s.src.node.Combined()}
					m.streaming = true
				}
				// Source first: a block landing between the two reads
				// can only shorten the lag, never make it negative.
				at := s.src.node.Combined()
				lag.Add(frac, int(at-m.node.Combined()))
			}
		}
	}()

	var err error
	if churnEvery > 0 {
		// No event in the last period, so the last newcomer streams
		// inside the window.
		for due := churnEvery; due <= window-churnEvery && err == nil; due += churnEvery {
			time.Sleep(time.Until(t0.Add(due)))
			late := float64(time.Since(t0.Add(due)).Nanoseconds()) / 1e6
			r.pacerLateMs = math.Max(r.pacerLateMs, late)
			s.removeLeaf()
			err = s.join()
		}
	}
	time.Sleep(time.Until(t0.Add(window)))
	close(stop)
	<-sampled

	r.elapsed = time.Since(t0).Seconds()
	s.tr.end(span)
	r.mem = readMem().since(m0)
	r.cpuS = cpuSeconds() - cpu0
	s.src.last = s.read(s.src)
	for _, m := range s.snapshot() {
		m.last = s.read(m)
	}
	r.goroutines = runtime.NumGoroutine()
	r.nodes = len(s.snapshot()) + 1
	r.depth = s.depthMean()
	r.heapMiB = liveHeapMiB()
	return err
}

// reportLive turns the rounds' readings into metrics and output checks.
func reportLive(p *pass, spec swarmSpec, rounds []*liveRound, lag *stat.Lag) {
	var (
		sent                                   netpeer.NetStats
		onTime, total, advanced, due           float64
		srcBlocks, srcFrames, elapsed          float64
		joinsAttempted, joinsFailed, joins     int
		minContinuity                          = 1.0
		rec                                    netpeer.RecoveryStats
		startup, toPartner, ttfb               []float64
		retries, rejects, laneRetries, unavail float64
		registerMs, candidatesMs               []float64
		bootOps                                int
		mem                                    memMark
		heaps, setups, depths                  []float64
		cpuS, goroutinesPerNode, pacerLateMs   float64
	)
	add := func(m *member) {
		a, b := m.last.stats, m.first.stats
		sent.FramesSent += a.FramesSent - b.FramesSent
		sent.WriteCalls += a.WriteCalls - b.WriteCalls
		sent.BytesSent += a.BytesSent - b.BytesSent
		sent.BMFrames += a.BMFrames - b.BMFrames
		sent.BMBytes += a.BMBytes - b.BMBytes
		sent.BlockFrames += a.BlockFrames - b.BlockFrames
		sent.BlockBytes += a.BlockBytes - b.BlockBytes
		sent.FanEncodes += a.FanEncodes - b.FanEncodes
		sent.FanShared += a.FanShared - b.FanShared
		sent.BlocksReceived += a.BlocksReceived - b.BlocksReceived
	}
	// A peer's delivery is judged once it has been due at least two
	// seconds of stream; shorter stays only count in the totals.
	judgeFrom := 2 * spec.layout.BlocksPerSecond()
	for i, r := range rounds {
		s := r.s
		add(s.src)
		srcBlocks += float64(s.src.last.combined - s.src.first.combined)
		srcFrames += float64(s.src.last.stats.BlockFrames - s.src.first.stats.BlockFrames)
		elapsed += r.elapsed
		for _, m := range append(append([]*member(nil), s.snapshot()...), s.departed...) {
			add(m)
			switch {
			case !spec.tracker:
				startup = append(startup, m.startup.Seconds()) // placement → playback
			case m.join.Joined:
				joins++
				startup = append(startup, m.join.TimeToFirstBlock.Seconds())
				toPartner = append(toPartner, float64(m.join.TimeToPartner.Nanoseconds())/1e6)
				ttfb = append(ttfb, float64(m.join.TimeToFirstBlock.Nanoseconds())/1e6)
				retries += float64(m.join.Retries)
				rejects += float64(m.join.Rejects)
				laneRetries += float64(m.join.LaneRetries)
				unavail += float64(m.join.TrackerUnavailable)
			}
			rec.PartnersReplaced += m.last.rec.PartnersReplaced - m.first.rec.PartnersReplaced
			rec.StaleTeardowns += m.last.rec.StaleTeardowns - m.first.rec.StaleTeardowns
			rec.SlowPartnerTeardowns += m.last.rec.SlowPartnerTeardowns - m.first.rec.SlowPartnerTeardowns
			rec.LeaseRenewals += m.last.rec.LeaseRenewals - m.first.rec.LeaseRenewals
			if !m.streaming {
				continue // left before its playback started: traffic counted, nothing due
			}
			dOn, dTotal := float64(m.last.onTime-m.first.onTime), float64(m.last.total-m.first.total)
			onTime, total = onTime+dOn, total+dTotal
			mDue := float64(m.last.srcCombined - m.first.srcCombined)
			mAdv := math.Min(float64(m.last.combined-m.first.combined), mDue)
			advanced, due = advanced+mAdv, due+mDue
			if mDue >= judgeFrom {
				minContinuity = math.Min(minContinuity, ratio(dOn, dTotal))
				p.check(fmt.Sprintf("swarm_%d_peer_%d_delivery", i+1, m.id), mAdv >= deliveryFloor*mDue,
					"contiguous prefix advanced %.0f of %.0f blocks due", mAdv, mDue)
			}
		}
		joinsAttempted += s.joinsAttempted
		joinsFailed += s.joinsFailed
		registerMs = append(registerMs, s.boot.registerMs...)
		candidatesMs = append(candidatesMs, s.boot.candidatesMs...)
		bootOps += s.boot.ops
		mem.mallocs += r.mem.mallocs
		mem.bytes += r.mem.bytes
		heaps = append(heaps, r.heapMiB)
		setups = append(setups, r.setupS)
		depths = append(depths, r.depth)
		cpuS += r.cpuS
		goroutinesPerNode += float64(r.goroutines) / float64(r.nodes) / float64(len(rounds))
		pacerLateMs = math.Max(pacerLateMs, r.pacerLateMs)
		p.op(false) // the window itself
	}
	for i := 0; i < joinsAttempted; i++ {
		p.op(i < joinsFailed)
	}
	delivered := float64(sent.BlocksReceived)
	blockRate := ratio(srcBlocks, elapsed)
	joinsOK := ratio(float64(joinsAttempted-joinsFailed), float64(joinsAttempted))
	heap := stat.Median(heaps)

	p.e2e("setup_s", stat.Median(setups), "s")
	p.e2e("ok_ratio", joinsOK*ratio(advanced, due), "ratio")
	p.e2e("continuity", ratio(onTime, total), "ratio")
	p.e2e("allocs_per_op", ratio(float64(mem.mallocs), delivered), "1/op")
	p.e2e("alloc_bytes_per_op", ratio(float64(mem.bytes), delivered), "B/op")
	p.e2e("heap_live_mb", heap, "MiB")
	if !p.traced() {
		return
	}

	nodes := float64(rounds[0].nodes)
	p.layer("source_share", ratio(srcFrames, delivered), "ratio")
	p.layer("netpeer.block_delay_ms", lag.MeanDelay(blockRate)*1e3, "ms")
	p.layer("netpeer.block_delay_ms_p99", lag.PercentileDelay(0.99, blockRate)*1e3, "ms")
	p.layer("netpeer.startup_s_p50", stat.Median(startup), "s")
	p.layer("netpeer.writes_per_block", ratio(float64(sent.WriteCalls), delivered), "1/op")
	p.layer("netpeer.wire_bytes_per_block", ratio(float64(sent.BytesSent), delivered), "B/op")
	p.layer("netpeer.frames_per_write", ratio(float64(sent.FramesSent), float64(sent.WriteCalls)), "ratio")
	p.layer("netpeer.bm_bytes_per_peer_s", ratio(float64(sent.BMBytes), ratio(due, blockRate)), "B/s")
	p.layer("netpeer.bm_share", ratio(float64(sent.BMBytes), float64(sent.BytesSent)), "ratio")
	p.layer("netpeer.fan_shared_ratio", ratio(float64(sent.FanShared), float64(sent.FanShared+sent.FanEncodes)), "ratio")
	p.layer("netpeer.block_overhead_bytes", ratio(float64(sent.BlockBytes), float64(sent.BlockFrames))-float64(spec.layout.BlockBytes), "B")
	p.layer("netpeer.cpu_ms_per_kblock", ratio(cpuS*1e6, delivered), "ms")
	p.layer("netpeer.goroutines_per_node", goroutinesPerNode, "count")
	p.layer("netpeer.heap_kb_per_node", heap*1024/nodes, "KiB")
	p.layer("netpeer.continuity_min", minContinuity, "ratio")
	p.layer("netpeer.depth_mean", stat.Median(depths), "count")
	p.layer("netpeer.blocks_per_s", blockRate, "1/s")
	p.layer("netpeer.lag_samples", float64(lag.Samples()), "count")
	p.layer("netpeer.pacer_late_ms_max", pacerLateMs, "ms")
	p.layer("netpeer.partners_replaced", float64(rec.PartnersReplaced), "count")
	p.layer("netpeer.stale_teardowns", float64(rec.StaleTeardowns), "count")
	p.layer("netpeer.slow_partner_teardowns", float64(rec.SlowPartnerTeardowns), "count")
	if spec.tracker && joins > 0 {
		// The newcomers that arrived through Node.Join.
		p.layer("netpeer.join_to_partner_ms_p50", stat.Median(toPartner), "ms")
		p.layer("netpeer.join_ttfb_ms_p75", stat.Percentile(ttfb, 0.75), "ms")
		p.layer("netpeer.join_retries_mean", retries/float64(joins), "count")
		p.layer("netpeer.rejects", rejects, "count")
		p.layer("netpeer.lane_retries", laneRetries, "count")
		p.layer("netboot.unavailable", unavail, "count")
		p.layer("netboot.lease_renewals", float64(rec.LeaseRenewals), "count")
		p.layer("netboot.register_ms_p50", stat.Median(registerMs), "ms")
		p.layer("netboot.candidates_ms_p50", stat.Median(candidatesMs), "ms")
		p.layer("netboot.ops_per_join", float64(bootOps)/float64(joinsAttempted), "count") // per arrival, placed or joined
	}
	// The spans are the driver's own, so tracing costs the windows only
	// the tracer's bookkeeping.
	p.layer("proc.trace_overhead", 1+ratio(float64(p.tr.selfNs)/1e9, elapsed), "ratio")
}

// runLive is both live workloads: setupRepeats times over, build a
// swarm, settle, measure its share of the window, close it; then
// report the rounds together.
func runLive(p *pass, spec swarmSpec, peers int, churnEvery time.Duration) error {
	lag := stat.NewLag(p.sz.subWindows, 4096)
	rounds := make([]*liveRound, 0, p.sz.setupRepeats)
	for i := 0; i < p.sz.setupRepeats; i++ {
		sp := p.tr.begin("bench.swarm_setup", p.root)
		t0 := time.Now()
		s, err := newSwarm(p, spec)
		if err != nil {
			return err
		}
		s.parent = sp
		if err := s.populate(peers); err != nil {
			s.close()
			return err
		}
		p.tr.end(sp)
		p.settle()
		r := &liveRound{s: s, setupS: time.Since(t0).Seconds()}
		rounds = append(rounds, r)
		err = s.measure(p, r, lag, i, p.sz.setupRepeats, churnEvery)
		s.close()
		if err != nil {
			return err
		}
	}
	reportLive(p, spec, rounds, lag)
	return nil
}

// liveSwarm is the operator's view: a tracker, a source with few
// slots, an established relay tree, and every other second of the
// window a leaf that leaves and a newcomer that arrives through the
// bounded-retry join engine. A work unit is one delivered block.
func liveSwarm(p *pass) error {
	return runLive(p, p.sz.swarm, p.sz.swarmPeers, p.sz.swarmChurnEvery)
}

// liveFanout is the data plane alone: a star at a block rate where the
// cost per frame dominates. No tracker, no joins in the window, no
// adaptation.
func liveFanout(p *pass) error {
	return runLive(p, p.sz.fanout, p.sz.fanoutPeers, 0)
}
