// Membership/partnership maintenance — the self-healing half of the
// paper's §II node architecture, over real sockets. A dead conn is
// dropped and its lanes orphaned by the read loop; the maintenance loop
// is what wins partners back:
//
//   - liveness: a partner that has sent no frame (BM, ping, push —
//     anything) within the staleness deadline is torn down, exactly as
//     if its connection had errored. bmLoop's TypePing heartbeat makes
//     "no frame" equivalent to "hung", even for nodes with no buffers.
//   - replenishment: when the partner count falls below the target M,
//     candidates are dialed toward it, drawn from the local mCache. The
//     mCache is fed three ways: partner-request address advertisements,
//     TypeMCacheRequest/Reply gossip piggybacked on live partnerships,
//     and tracker re-Candidates calls (which also re-register this
//     node, healing tracker state after an outage). Tracker retries
//     ride the netboot client's capped-exponential deterministic backoff.
//   - departure: Close announces TypeLeave to partners and Leave to the
//     tracker (see shutdown in node.go).
//
// Everything the loop does is observable through RecoveryStats for the
// log pipeline and the chaos harness.
package netpeer

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"coolstream/internal/netboot"
	"coolstream/internal/protocol"
	"coolstream/internal/xrand"
)

// Bootstrap is the tracker surface the maintenance loop needs;
// *netboot.TCPClient satisfies it directly.
type Bootstrap interface {
	Register(id int32, addr string) error
	Leave(id int32) error
	Candidates(n int, exclude int32) ([]netboot.Entry, error)
}

var _ Bootstrap = (*netboot.TCPClient)(nil)

// mcacheEntry is one locally-cached membership candidate.
type mcacheEntry struct {
	addr string
	seen time.Time
}

// RecoveryStats counts self-healing actions for the log pipeline and
// the chaos harness. Read a consistent snapshot with Node.Recovery.
type RecoveryStats struct {
	// StaleTeardowns counts partners torn down by the liveness deadline
	// (hung conns — the connection was open but silent).
	StaleTeardowns int
	// PartnersReplaced counts successful replenishment dials.
	PartnersReplaced int
	// Rebootstraps counts tracker re-contact rounds (re-register +
	// Candidates) triggered by a depleted partner set.
	Rebootstraps int
	// BootstrapFailures counts re-contact rounds that failed even after
	// the client's retries — the tracker was down for the whole window.
	BootstrapFailures int
	// GossipSent counts TypeMCacheRequest frames sent to partners.
	GossipSent int
	// GossipMerged counts candidate entries merged from gossip replies.
	GossipMerged int
	// LeaseRenewals counts successful periodic tracker re-registrations
	// (lease renewals) — the keep-alive that stops the tracker's lease
	// expiry from evicting a live-but-quiet peer.
	LeaseRenewals int
	// PusherAborts counts abnormal pusher exits that sent the child a
	// teardown notice (see abortPusher).
	PusherAborts int
	// SlowPartnerTeardowns counts partnerships torn down because the
	// partner could not drain its bounded outbound queue (see
	// conn.enqueue in writer.go).
	SlowPartnerTeardowns int
	// BMFailTeardowns counts partnerships torn down by the BM loop
	// after persistent buffer-map send failures.
	BMFailTeardowns int
}

// gossipWant is the entry count requested per mCache gossip
// solicitation (and answered when a request names none); mcacheCap
// bounds the local membership cache.
const (
	gossipWant = 8
	mcacheCap  = 64
)

// ManagerConfig parameterises the maintenance loop.
type ManagerConfig struct {
	// TargetPartners is M — any deficit below it triggers replenishment
	// dials toward it.
	TargetPartners int
	// Stale is the liveness deadline: a partner with no inbound frame
	// for this long is torn down (default: 8×BMPeriod, floor 2s).
	Stale time.Duration
	// Interval is the maintenance period (default: max(BMPeriod, 250ms)).
	Interval time.Duration
	// DialCooldown keeps a failed candidate out of replenishment
	// attempts for this long (default 5s).
	DialCooldown time.Duration
	// RenewEvery is the tracker lease-renewal period (default 10s —
	// a third of the registry's default 30s lease, so two renewals can
	// be lost before the lease lapses). Ignored when boot is nil.
	RenewEvery time.Duration
	// Seed drives the deterministic candidate shuffle.
	Seed uint64
}

func (c *ManagerConfig) applyDefaults(bmPeriod time.Duration) error {
	if c.TargetPartners <= 0 {
		return fmt.Errorf("netpeer: TargetPartners %d", c.TargetPartners)
	}
	if c.Stale <= 0 {
		c.Stale = max(8*bmPeriod, 2*time.Second)
	}
	if c.Interval <= 0 {
		c.Interval = max(bmPeriod, 250*time.Millisecond)
	}
	if c.DialCooldown <= 0 {
		c.DialCooldown = 5 * time.Second
	}
	if c.RenewEvery <= 0 {
		c.RenewEvery = 10 * time.Second
	}
	return nil
}

// EnableMaintenance starts the membership/partnership maintenance loop.
// boot may be nil (no tracker: replenishment then relies on gossip
// alone). Call after Listen; the listen address is what re-registration
// advertises.
func (n *Node) EnableMaintenance(cfg ManagerConfig, boot Bootstrap) error {
	if err := cfg.applyDefaults(n.cfg.BMPeriod); err != nil {
		return err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("netpeer: node closed")
	}
	if n.boot != nil || n.mgr.TargetPartners > 0 {
		n.mu.Unlock()
		return fmt.Errorf("netpeer: maintenance already enabled")
	}
	n.mgr = cfg
	n.boot = boot
	n.selfAddr = n.Addr()
	n.mu.Unlock()

	// A stoppable boot client (both netboot clients) aborts any backoff
	// pause the moment the node shuts down, instead of sleeping it out.
	if s, ok := boot.(interface{ SetStop(<-chan struct{}) }); ok {
		s.SetStop(n.done)
	}

	rng := xrand.New(cfg.Seed ^ uint64(n.cfg.ID)*0x9e3779b97f4a7c15)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		renew := time.NewTicker(cfg.RenewEvery)
		defer renew.Stop()
		for {
			select {
			case <-ticker.C:
				n.reapStalePartners(cfg)
				n.replenishPartners(cfg, rng)
			case <-renew.C:
				n.renewLease()
			case <-n.done:
				return
			}
		}
	}()
	return nil
}

// renewLease re-registers with the tracker to keep the lease alive: a
// peer with a full partner set never rebootstraps, and without this
// keep-alive the tracker's expiry would evict it even though it is
// perfectly healthy.
func (n *Node) renewLease() {
	n.mu.Lock()
	boot, selfAddr := n.boot, n.selfAddr
	n.mu.Unlock()
	if boot == nil {
		return
	}
	if boot.Register(n.cfg.ID, selfAddr) == nil {
		n.mu.Lock()
		n.rec.LeaseRenewals++
		n.mu.Unlock()
	}
}

// Recovery returns a snapshot of the self-healing counters.
func (n *Node) Recovery() RecoveryStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rec
}

// reapStalePartners tears down partners whose last inbound frame is
// older than the staleness deadline — the hung-conn case TCP errors
// never surface.
func (n *Node) reapStalePartners(cfg ManagerConfig) {
	now := time.Now()
	var victims []*conn
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	for _, cn := range n.conns {
		if now.Sub(time.Unix(0, cn.seen.Load())) > cfg.Stale {
			victims = append(victims, cn)
		}
	}
	for _, cn := range victims {
		n.dropPartnerLocked(cn)
		// A hung peer's address must not be redialed immediately.
		delete(n.mcache, cn.peer)
		n.failedDial[cn.peer] = now
		n.rec.StaleTeardowns++
	}
	n.mu.Unlock()
	for _, cn := range victims {
		cn.c.Close() // wakes the conn's readLoop, which finds itself already dropped
	}
}

// replenishPartners dials mCache candidates toward the target partner
// count whenever the set is short of it, soliciting gossip and
// re-contacting the tracker when the cache runs dry.
func (n *Node) replenishPartners(cfg ManagerConfig, rng *xrand.RNG) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	have := len(n.conns)
	if have >= cfg.TargetPartners {
		n.mu.Unlock()
		return
	}
	need := cfg.TargetPartners - have
	cands := n.candidatesLocked(cfg)
	gossipTargets := n.connsLocked()
	n.mu.Unlock()

	// Deterministic order for the shuffle: candidatesLocked returns
	// ascending IDs.
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })

	dialed := 0
	for _, cand := range cands {
		if dialed >= need {
			break
		}
		select {
		case <-n.done:
			return
		default:
		}
		if _, err := n.Connect(cand.addr); err != nil {
			n.mu.Lock()
			delete(n.mcache, cand.id)
			n.failedDial[cand.id] = time.Now()
			n.mu.Unlock()
			continue
		}
		dialed++
		n.mu.Lock()
		n.rec.PartnersReplaced++
		n.mu.Unlock()
	}
	if dialed >= need {
		return
	}

	// Still short: solicit gossip from live partners for the next round…
	for _, cn := range gossipTargets {
		if cn.send(protocol.Message{
			Type: protocol.TypeMCacheRequest, From: n.cfg.ID, To: cn.peer,
			Want: gossipWant,
		}) == nil {
			n.mu.Lock()
			n.rec.GossipSent++
			n.mu.Unlock()
		}
	}
	// …and fall back to the tracker (with the client's own backoff).
	n.rebootstrap(cfg)
}

// candidate is one dialable replenishment option.
type candidate struct {
	id   int32
	addr string
}

// candidatesLocked returns dialable mCache entries — not self, not an
// existing partner, not in the failed-dial cooldown — in ascending ID
// order (so the caller's seeded shuffle is deterministic).
func (n *Node) candidatesLocked(cfg ManagerConfig) []candidate {
	now := time.Now()
	out := make([]candidate, 0, len(n.mcache))
	for id, e := range n.mcache {
		if id == n.cfg.ID || e.addr == "" || e.addr == n.selfAddr {
			continue
		}
		if _, partnered := n.conns[id]; partnered {
			continue
		}
		if t, bad := n.failedDial[id]; bad {
			if now.Sub(t) < cfg.DialCooldown {
				continue
			}
			delete(n.failedDial, id)
		}
		out = append(out, candidate{id: id, addr: e.addr})
	}
	slices.SortFunc(out, func(a, b candidate) int { return cmp.Compare(a.id, b.id) })
	return out
}

// rebootstrap re-contacts the tracker: re-register (heals tracker state
// lost to an outage or restart), then fetch fresh candidates into the
// mCache. Counted per round, not per request attempt — the netboot
// client retries internally.
func (n *Node) rebootstrap(cfg ManagerConfig) {
	n.mu.Lock()
	boot, selfAddr := n.boot, n.selfAddr
	if boot != nil {
		n.rec.Rebootstraps++
	}
	n.mu.Unlock()
	if boot == nil {
		return
	}
	regErr := boot.Register(n.cfg.ID, selfAddr)
	entries, err := boot.Candidates(cfg.TargetPartners*2, n.cfg.ID)
	if err != nil || regErr != nil {
		n.mu.Lock()
		n.rec.BootstrapFailures++
		n.mu.Unlock()
	}
	for _, e := range entries {
		n.mcacheAdd(e.ID, e.Addr)
	}
}

// mcacheAdd records one candidate, evicting the oldest entry when the
// cache is full; it reports whether the entry was usable.
func (n *Node) mcacheAdd(id int32, addr string) bool {
	if addr == "" || id == n.cfg.ID {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.mcache[id]; !ok && len(n.mcache) >= mcacheCap {
		var oldest int32
		var oldestAt time.Time
		first := true
		for oid, e := range n.mcache {
			if first || e.seen.Before(oldestAt) {
				oldest, oldestAt, first = oid, e.seen, false
			}
		}
		delete(n.mcache, oldest)
	}
	n.mcache[id] = mcacheEntry{addr: addr, seen: time.Now()}
	return true
}

// mcacheMerge folds gossip-reply entries into the cache.
func (n *Node) mcacheMerge(entries []protocol.PeerEntry) {
	merged := 0
	for _, e := range entries {
		if n.mcacheAdd(e.ID, e.Addr) {
			merged++
		}
	}
	if merged > 0 {
		n.mu.Lock()
		n.rec.GossipMerged += merged
		n.mu.Unlock()
	}
}

// buildMCacheReply answers a partner's gossip solicitation with up to
// want known candidates (mCache plus partners with known addresses),
// excluding the requester itself.
func (n *Node) buildMCacheReply(requester int32, want int) (protocol.Message, bool) {
	if want <= 0 {
		want = gossipWant // wire-supplied: a request naming none gets the default
	}
	n.mu.Lock()
	entries := make([]protocol.PeerEntry, 0, want)
	ids := make([]int32, 0, len(n.mcache))
	for id := range n.mcache {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	partners := int16(len(n.conns))
	for _, id := range ids {
		if len(entries) >= want {
			break
		}
		if id == requester {
			continue
		}
		entries = append(entries, protocol.PeerEntry{ID: id, Addr: n.mcache[id].addr})
	}
	// Advertise ourselves too: the requester is a partner already, but
	// a relayed reply may reach peers that are not.
	if n.selfAddr != "" && len(entries) < want {
		entries = append(entries, protocol.PeerEntry{
			ID: n.cfg.ID, Addr: n.selfAddr, PartnerCount: partners,
		})
	}
	n.mu.Unlock()
	if len(entries) == 0 {
		return protocol.Message{}, false
	}
	return protocol.Message{
		Type: protocol.TypeMCacheReply, From: n.cfg.ID, To: requester, Entries: entries,
	}, true
}

// MCacheSize returns the current membership-cache population
// (observability for tests and the chaos harness).
func (n *Node) MCacheSize() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.mcache)
}
