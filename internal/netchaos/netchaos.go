// Package netchaos is the network chaos harness for the live socket
// stack: it builds a real TCP overlay (bootstrap tracker, source, N
// peers with the §IV-B adaptation monitor and the self-healing
// membership manager enabled), then injects the faults the paper's §V
// measurements say dominate a deployed mesh-pull system —
//
//   - abrupt peer death (Abort: conns die with no Leave frame),
//   - hung connections (a "zombie" handshakes and then freezes with the
//     TCP connection open: the stale-BM case no read error ever
//     surfaces),
//   - a tracker outage window (the binary tracker answers "unavailable"
//     until lifted, exercising the capped-exponential re-bootstrap
//     backoff),
//
// and finally asserts recovery: every surviving peer back at or above
// the target partner count with positive per-lane progress inside the
// recovery window. The same harness backs the netchaos test suite and
// `coolnet -scenario chaos`.
package netchaos

import (
	"fmt"
	"net"
	"slices"
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/faults"
	"coolstream/internal/netboot"
	"coolstream/internal/netpeer"
	"coolstream/internal/protocol"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// Config sizes one chaos run. The zero value selects CI-friendly
// defaults (see applyDefaults).
type Config struct {
	// Peers is the number of non-source peers.
	Peers int
	// TargetPartners is each peer's target M.
	TargetPartners int
	// Kills is how many peers a survivor cannot spare die abruptly mid-run.
	Kills int
	// Zombies is how many hung connections are injected into random
	// live peers.
	Zombies int
	// BootOutage is how long the tracker answers "unavailable" mid-run
	// (0 = no outage).
	BootOutage time.Duration
	// Warmup is the streaming time before any fault fires.
	Warmup time.Duration
	// RecoveryWindow is the healing time after the last fault; per-lane
	// progress is measured over its second half.
	RecoveryWindow time.Duration
	// Seed drives victim selection and all per-node seeds.
	Seed uint64
	// Layout overrides the stream geometry (default 256 kbps, K=4,
	// 800-byte blocks: 40 blocks/s — fast enough to measure, light
	// enough for -race CI).
	Layout buffer.Layout
	// Logf, when set, receives run narration (coolnet wires stdout).
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.Peers <= 0 {
		c.Peers = 8
	}
	if c.TargetPartners <= 0 {
		c.TargetPartners = 3
	}
	if c.Warmup <= 0 {
		c.Warmup = 2 * time.Second
	}
	if c.RecoveryWindow <= 0 {
		c.RecoveryWindow = 4 * time.Second
	}
	if c.Layout.K == 0 {
		c.Layout = buffer.Layout{K: 4, RateBps: 256e3, BlockBytes: 800}
	}
}

// PeerStatus is one surviving peer's end-of-run state.
type PeerStatus struct {
	ID           int32
	Partners     int
	Continuity   float64
	LaneProgress []int64 // per-lane block delta over the measured window
	Recovery     netpeer.RecoveryStats
}

// Recovered reports whether this peer healed: partner set at or above
// target and every lane advancing.
func (s PeerStatus) Recovered(target int) bool {
	if s.Partners < target {
		return false
	}
	for _, d := range s.LaneProgress {
		if d <= 0 {
			return false
		}
	}
	return true
}

// Report is the outcome of one chaos run.
type Report struct {
	Survivors []PeerStatus
	Killed    []int32
	// Recovered is the acceptance bit: every survivor back at ≥ target
	// partners with positive progress on every lane.
	Recovered bool
	// Aggregate recovery counters across survivors.
	StaleTeardowns   int
	PartnersReplaced int
	Rebootstraps     int
	GossipSent       int
	PusherAborts     int
}

// Run executes one chaos scenario and reports recovery.
func Run(cfg Config) (Report, error) {
	cfg.applyDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := xrand.New(cfg.Seed ^ 0xc001c0de)

	// --- Bootstrap tracker: the production binary protocol on a real
	// socket. SetDown makes it answer retryable "unavailable" for the
	// outage window.
	tracker := netboot.NewTCPServer(
		netboot.NewRegistry(netboot.RegistryConfig{Seed: cfg.Seed}),
		netboot.TCPServerConfig{})
	trackerAddr, err := tracker.Listen("127.0.0.1:0")
	if err != nil {
		return Report{}, err
	}
	defer tracker.Close()
	logf("bootstrap tracker (binary) at %s", trackerAddr)

	var clients []*netboot.TCPClient
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	bootClient := func(id int32) *netboot.TCPClient {
		c := netboot.NewTCPClient(trackerAddr)
		c.SetTimeout(2 * time.Second)
		c.SetBackoff(faults.Backoff{
			Base: 50 * sim.Millisecond, Cap: 400 * sim.Millisecond, JitterFrac: 0.5,
		}, 4, uint64(id))
		clients = append(clients, c)
		return c
	}

	nodeCfg := func(id int32, uploadBps float64) netpeer.Config {
		return netpeer.Config{
			ID: id, Layout: cfg.Layout, UploadBps: uploadBps,
			BMPeriod:     100 * time.Millisecond,
			BufferBlocks: 600, ReadyBlocks: 5,
			WriteTimeout: 2 * time.Second,
		}
	}

	// --- Source. ---
	src, err := netpeer.New(nodeCfg(0, 0))
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
	if err := bootClient(0).Register(0, srcAddr); err != nil {
		return Report{}, fmt.Errorf("netchaos: register source: %w", err)
	}
	logf("source 0 streaming %.0f blocks/s at %s", cfg.Layout.BlocksPerSecond(), srcAddr)
	time.Sleep(300 * time.Millisecond) // let the live edge advance

	// --- Peers. ---
	peers := make(map[int32]*netpeer.Node, cfg.Peers)
	defer func() {
		for _, p := range peers {
			p.Close()
		}
	}()
	for i := 1; i <= cfg.Peers; i++ {
		id := int32(i)
		n, err := netpeer.New(nodeCfg(id, 4*cfg.Layout.RateBps))
		if err != nil {
			return Report{}, err
		}
		peers[id] = n
		addr, err := n.Listen()
		if err != nil {
			return Report{}, err
		}
		// The §IV-A join, as every peer does it: register, partner, start
		// behind the partners' live edge, subscribe every lane.
		bc := bootClient(id)
		if _, err := n.Join(netpeer.JoinConfig{
			Boot: bc, SelfAddr: addr, Register: true,
			TargetPartners: cfg.TargetPartners,
		}); err != nil {
			return Report{}, fmt.Errorf("netchaos: peer %d: %w", id, err)
		}
		n.EnableAdaptation(netpeer.AdaptConfig{
			Ts: 10, Tp: 20,
			Ta:    400 * time.Millisecond,
			Check: 150 * time.Millisecond,
			Seed:  cfg.Seed + uint64(id),
		})
		if err := n.EnableMaintenance(netpeer.ManagerConfig{
			TargetPartners: cfg.TargetPartners,
			Stale:          1200 * time.Millisecond,
			Interval:       150 * time.Millisecond,
			DialCooldown:   2 * time.Second,
			Seed:           cfg.Seed,
		}, bc); err != nil {
			return Report{}, err
		}
	}
	logf("%d peers joined; warming up %v", cfg.Peers, cfg.Warmup)
	time.Sleep(cfg.Warmup)

	// --- Fault injection. ---
	// Zombies first: hung conns that never send a frame after the
	// handshake — the victims must reap them via the staleness deadline.
	var zombieConns []net.Conn
	defer func() {
		for _, c := range zombieConns {
			c.Close()
		}
	}()
	ids := make([]int32, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for z := 0; z < cfg.Zombies && len(ids) > 0; z++ {
		victim := peers[ids[rng.Intn(len(ids))]]
		zc, err := dialZombie(victim.Addr(), int32(1000+z))
		if err != nil {
			logf("zombie %d dial failed: %v", z, err)
			continue
		}
		zombieConns = append(zombieConns, zc)
		logf("zombie conn %d hung into a live peer", 1000+z)
	}

	// Abrupt kills: no Leave frames, no tracker deregistration — the
	// tracker keeps advertising the dead addresses. Victims are drawn
	// among the peers some survivor cannot spare (it holds no partner
	// above its target): nobody heals from a loss it does not feel.
	var killed []int32
	for k := 0; k < cfg.Kills && len(ids) > 1; k++ {
		needed := slices.DeleteFunc(slices.Clone(ids), func(id int32) bool {
			return !slices.ContainsFunc(ids, func(o int32) bool {
				ps := peers[o].Partners()
				return o != id && len(ps) <= cfg.TargetPartners && slices.Contains(ps, id)
			})
		})
		if len(needed) == 0 {
			needed = ids
		}
		pick := needed[rng.Intn(len(needed))]
		ids = slices.DeleteFunc(ids, func(id int32) bool { return id == pick })
		peers[pick].Abort()
		delete(peers, pick)
		killed = append(killed, pick)
		logf("killed peer %d abruptly", pick)
	}

	// Tracker outage while the survivors are re-partnering.
	if cfg.BootOutage > 0 {
		tracker.SetDown(true)
		logf("tracker down for %v", cfg.BootOutage)
		time.Sleep(cfg.BootOutage)
		tracker.SetDown(false)
		logf("tracker restored")
	}

	// --- Recovery window: heal, then measure progress over the second
	// half. ---
	time.Sleep(cfg.RecoveryWindow / 2)
	before := snapshotLanes(peers, cfg.Layout.K)
	time.Sleep(cfg.RecoveryWindow / 2)

	rep := Report{Killed: killed, Recovered: true}
	for _, id := range ids {
		n := peers[id]
		st := PeerStatus{
			ID:           id,
			Partners:     len(n.Partners()),
			Continuity:   n.Continuity(),
			LaneProgress: make([]int64, cfg.Layout.K),
			Recovery:     n.Recovery(),
		}
		for j := 0; j < cfg.Layout.K; j++ {
			st.LaneProgress[j] = n.Latest(j) - before[id][j]
		}
		if !st.Recovered(cfg.TargetPartners) {
			rep.Recovered = false
		}
		rep.StaleTeardowns += st.Recovery.StaleTeardowns
		rep.PartnersReplaced += st.Recovery.PartnersReplaced
		rep.Rebootstraps += st.Recovery.Rebootstraps
		rep.GossipSent += st.Recovery.GossipSent
		rep.PusherAborts += st.Recovery.PusherAborts
		rep.Survivors = append(rep.Survivors, st)
		logf("peer %d: partners=%d continuity=%.3f laneΔ=%v replaced=%d stale=%d reboot=%d",
			id, st.Partners, st.Continuity, st.LaneProgress,
			st.Recovery.PartnersReplaced, st.Recovery.StaleTeardowns, st.Recovery.Rebootstraps)
	}
	return rep, nil
}

// dialZombie completes a partnership handshake and then goes silent,
// keeping the connection open — the hung-partner fault.
func dialZombie(addr string, id int32) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	if err := writeHandshake(c, id); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func writeHandshake(c net.Conn, id int32) error {
	// A zombie advertises no listen address: it must never enter a
	// victim's mCache as a dialable candidate.
	if err := protocol.WriteFrame(c, protocol.Message{
		Type: protocol.TypePartnerRequest, From: id, To: -1,
	}); err != nil {
		return err
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	resp, err := protocol.ReadFrame(c)
	if err != nil {
		return err
	}
	if resp.Type != protocol.TypePartnerAccept {
		return fmt.Errorf("netchaos: zombie handshake rejected: %v", resp.Type)
	}
	return nil
}

func snapshotLanes(peers map[int32]*netpeer.Node, k int) map[int32][]int64 {
	out := make(map[int32][]int64, len(peers))
	for id, n := range peers {
		lanes := make([]int64, k)
		for j := 0; j < k; j++ {
			lanes[j] = n.Latest(j)
		}
		out[id] = lanes
	}
	return out
}
