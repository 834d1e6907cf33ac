package netpeer

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/protocol"
)

// Config configures one networked node.
type Config struct {
	// ID is the node's protocol identity.
	ID int32
	// Layout fixes R, K and the block size (small blocks keep tests
	// fast; the wire format is size-agnostic).
	Layout buffer.Layout
	// UploadBps meters outgoing block pushes (0 = unlimited).
	UploadBps float64
	// BMPeriod is the buffer-map exchange period towards partners.
	BMPeriod time.Duration
	// BufferBlocks is the cache window in per-sub-stream blocks.
	BufferBlocks int64
	// ReadyBlocks is the startup buffer in per-sub-stream blocks.
	ReadyBlocks int64
	// WriteTimeout bounds every frame write towards a partner (0
	// selects DefaultWriteTimeout; negative is a configuration error).
	WriteTimeout time.Duration
	// Dialer overrides the outbound connection function (nil =
	// net.DialTimeout). Fault-injection wrappers hook in here (see
	// internal/faults.Injector.WrapDial).
	Dialer func(network, addr string, timeout time.Duration) (net.Conn, error)
	// FlushDelay is how long the writer lingers for more frames when the
	// queue holds less than one coalesced write (default 2ms; negative
	// disables lingering, making every flush immediate).
	FlushDelay time.Duration
	// QueueBytes bounds each partner's outbound queue; overflow tears
	// the partnership down as a slow partner (default 256 KiB).
	QueueBytes int
	// MaxFrameBytes bounds inbound frames on partner connections
	// (default BlockBytes+4096, floor 16 KiB). Partner conns only carry
	// blocks of a known size and small control frames; accepting the
	// protocol-wide 16 MiB limit would let one bad peer force huge
	// allocations.
	MaxFrameBytes int

	// MaxPartners caps the partner set as seen by INBOUND handshakes
	// (0 = unlimited). A full node answers PartnerRequest with a
	// PartnerReject carrying alternate candidates from its mCache, so a
	// flash-crowd joiner is redirected, not dead-ended. Outbound
	// Connects are not capped: the node itself decides when to dial.
	MaxPartners int
	// MaxPendingHandshakes bounds concurrent inbound handshakes — the
	// pre-registration window where a goroutine and a read deadline are
	// the only state. Connections past the bound are dropped before any
	// protocol work (default 64; negative = unlimited). This is the
	// accept-side storm fuse: a SYN flood of joiners costs one closed
	// socket each, not a goroutine pile-up.
	MaxPendingHandshakes int
	// RejectAlternates is how many mCache candidates ride along on an
	// admission reject (default 4; negative = none).
	RejectAlternates int
	// UploadSlots caps concurrently served sub-stream subscriptions
	// (0 = unlimited). A subscribe past the cap — or before this node's
	// own buffers are initialised — is refused with an Unsubscribe
	// notice, so the child re-plans immediately instead of starving on
	// a silent lane. This protects established children: the upload
	// bucket is shared, and admitting a 9th lane onto bandwidth sized
	// for 8 degrades all 9.
	UploadSlots int
	// HandshakeTimeout bounds the handshake read on both ends (0
	// selects DefaultHandshakeTimeout; negative is a configuration
	// error).
	HandshakeTimeout time.Duration
}

// DefaultWriteTimeout is the per-frame write deadline used when
// Config.WriteTimeout is zero.
const DefaultWriteTimeout = 10 * time.Second

// DefaultDialTimeout bounds the outbound TCP dial in Connect;
// DefaultHandshakeTimeout bounds the handshake read when
// Config.HandshakeTimeout is zero.
const (
	DefaultDialTimeout      = 5 * time.Second
	DefaultHandshakeTimeout = 5 * time.Second
)

// defaultPendingHandshakes is the inbound handshake concurrency bound
// when Config.MaxPendingHandshakes is zero.
const defaultPendingHandshakes = 64

// defaultRejectAlternates is how many candidates a full node attaches
// to an admission reject when Config.RejectAlternates is zero.
const defaultRejectAlternates = 4

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if c.BMPeriod <= 0 {
		return fmt.Errorf("netpeer: BMPeriod %v", c.BMPeriod)
	}
	if c.BufferBlocks <= 0 || c.ReadyBlocks <= 0 {
		return fmt.Errorf("netpeer: buffer %d / ready %d blocks", c.BufferBlocks, c.ReadyBlocks)
	}
	if c.WriteTimeout < 0 {
		return fmt.Errorf("netpeer: WriteTimeout %v", c.WriteTimeout)
	}
	if c.HandshakeTimeout < 0 {
		return fmt.Errorf("netpeer: HandshakeTimeout %v", c.HandshakeTimeout)
	}
	if c.MaxPartners < 0 {
		return fmt.Errorf("netpeer: MaxPartners %d", c.MaxPartners)
	}
	if c.UploadSlots < 0 {
		return fmt.Errorf("netpeer: UploadSlots %d", c.UploadSlots)
	}
	return nil
}

// conn is one partnership: its TCP connection and everything this node
// knows about the partner. A reconnect is a new conn, so it starts with
// no buffer map and no delta epoch until its own keyframe arrives.
type conn struct {
	peer int32
	// outgoing records which end dialed: the duplicate-connection
	// tie-break in register relies on it being true on exactly one end.
	outgoing bool
	wt       time.Duration
	c        net.Conn
	wmu      sync.Mutex
	// n points back to the owning node for stats and config; nil on
	// bare conns (handshake rejects, tests) which always take the
	// direct send path.
	n *Node

	// Batched writer state (see writer.go). writerOn is set under n.mu
	// before the conn is published and never cleared.
	writerOn bool
	qmu      sync.Mutex
	qcond    *sync.Cond
	q        []outFrame
	qBytes   int
	qErr     error

	// BM delta sender state, guarded by n.mu: the last map sent on this
	// conn (its own K-wide storage, rewritten in place every exchange),
	// the current epoch, whether the receiver acked it, and how many
	// deltas followed the last keyframe. bmFails is touched only by the
	// bmLoop goroutine.
	bmSent     buffer.BufferMap
	bmHave     bool
	bmEpoch    uint8
	bmAcked    bool
	bmSinceKey int
	bmFails    int

	// Receiver state, guarded by n.mu: the partner's last buffer map on
	// this conn — Layout.K lanes wide or empty, updated in place by the
	// read loop — when it was refreshed (zero: no map yet; the adaptation
	// planner expires a hung partner's frozen map by this stamp), and the
	// sender's delta epoch as last established by a keyframe.
	bm      buffer.BufferMap
	bmAt    time.Time
	rxEpoch uint8
	rxHave  bool
	// seen is the UnixNano of the last inbound frame of ANY kind — the
	// liveness signal the maintenance loop checks against its staleness
	// deadline. Seeded at registration; the read loop stores it without
	// the node lock.
	seen atomic.Int64
}

// send hands one frame to the partner: enqueued on the batched writer
// when one is attached, written directly otherwise.
func (cn *conn) send(m protocol.Message) error {
	if cn.writerOn {
		return cn.enqueueMsg(m)
	}
	return cn.sendTimeout(m, cn.wt)
}

// sendTimeout writes one frame directly under an explicit deadline,
// bypassing the writer queue — the handshake, teardown and departure
// paths use it so their frames cannot queue behind bulk traffic (and
// the graceful paths use a shorter deadline than ordinary sends so
// Close cannot stall on a dead partner).
func (cn *conn) sendTimeout(m protocol.Message, wt time.Duration) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if err := cn.c.SetWriteDeadline(time.Now().Add(wt)); err != nil {
		return fmt.Errorf("netpeer: set write deadline: %w", err)
	}
	bp := encPool.Get().(*[]byte)
	buf, err := protocol.AppendFrame((*bp)[:0], m)
	if err != nil {
		encPool.Put(bp)
		return err
	}
	_, werr := cn.c.Write(buf)
	size := len(buf)
	*bp = buf[:0]
	encPool.Put(bp)
	if werr != nil {
		return fmt.Errorf("protocol: frame write: %w", werr)
	}
	if cn.n != nil {
		cn.n.stats.countFrame(m.Type, size)
		cn.n.stats.writeCalls.Add(1)
		cn.n.stats.bytesSent.Add(uint64(size))
	}
	return nil
}

type pushKey struct {
	peer int32
	sub  int
}

// Node is a networked Coolstreaming peer: it accepts partnerships,
// exchanges buffer maps, serves sub-stream subscriptions from its
// buffers, and receives pushed blocks into them.
type Node struct {
	cfg     Config
	bkt     *bucket
	ln      net.Listener
	payload []byte // shared synthetic block content

	mu      sync.Mutex
	cond    *sync.Cond
	conns   map[int32]*conn
	pushers map[pushKey]*pusherState
	// mcache is the local membership cache (§II): gossiped and
	// tracker-fetched candidates the maintenance loop replenishes from.
	mcache map[int32]mcacheEntry
	// failedDial cool-downs recently unreachable candidates so the
	// replenisher doesn't hammer dead addresses the tracker still lists.
	failedDial map[int32]time.Time
	rec        RecoveryStats
	// boot and selfAddr are set by EnableMaintenance: the tracker
	// surface used for re-bootstrap and the address re-registered there.
	boot     Bootstrap
	selfAddr string
	mgr      ManagerConfig
	// laneParent is the partner serving each sub-stream (-1: nobody),
	// set by SubscribeTracked and read by the adaptation monitor.
	laneParent []int32
	sb         *buffer.SyncBuffer
	cb         *buffer.CacheBuffer
	started    bool
	source     bool
	start      int64
	ready      bool
	readyAt    time.Time
	onTime     int64
	total      int64
	closed     bool
	// done is closed exactly once by Close so ticker-driven loops (BM
	// exchange, adaptation monitor) observe shutdown immediately instead
	// of on their next tick.
	done chan struct{}

	// hsReserved counts inbound handshakes that passed the partner-cap
	// check but have not registered yet: the cap is enforced against
	// len(conns)+hsReserved so two concurrent handshakes cannot both
	// squeeze through the last slot. Guarded by mu.
	hsReserved int
	// hsSem bounds concurrent inbound handshake goroutines; nil =
	// unlimited.
	hsSem chan struct{}

	// stats are the data-plane counters (see stats.go); fanMu guards the
	// shared fan-out frame cache — the ring, the slot the next encode
	// overwrites, and the free list of unreferenced frame buffers (see
	// fanFrame in writer.go). adm are the admission-control counters
	// (see admission.go).
	adm     admissionStats
	stats   netStats
	fanMu   sync.Mutex
	fanRing [fanCacheCap]fanSlot
	fanPos  int
	fanFree []*fanBuf

	wg sync.WaitGroup
}

// New creates a node. Call InitBuffers (or StartSource) before
// subscribing, and Listen before advertising the address.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.FlushDelay == 0 {
		cfg.FlushDelay = defaultFlushDelay
	} else if cfg.FlushDelay < 0 {
		cfg.FlushDelay = 0
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = defaultQueueBytes
	}
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = max(cfg.Layout.BlockBytes+4096, 16*1024)
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if cfg.MaxPendingHandshakes == 0 {
		cfg.MaxPendingHandshakes = defaultPendingHandshakes
	}
	if cfg.RejectAlternates == 0 {
		cfg.RejectAlternates = defaultRejectAlternates
	} else if cfg.RejectAlternates < 0 {
		cfg.RejectAlternates = 0
	}
	n := &Node{
		cfg:        cfg,
		bkt:        newBucket(cfg.UploadBps),
		payload:    make([]byte, cfg.Layout.BlockBytes),
		conns:      make(map[int32]*conn),
		pushers:    make(map[pushKey]*pusherState),
		mcache:     make(map[int32]mcacheEntry),
		failedDial: make(map[int32]time.Time),
		laneParent: make([]int32, cfg.Layout.K),
		done:       make(chan struct{}),
	}
	for j := range n.laneParent {
		n.laneParent[j] = -1
	}
	if cfg.MaxPendingHandshakes > 0 {
		n.hsSem = make(chan struct{}, cfg.MaxPendingHandshakes)
	}
	n.cond = sync.NewCond(&n.mu)
	return n, nil
}

// pusherState lets a subscription be cancelled (unsubscribe or
// adaptation switch).
type pusherState struct{ stop bool }

// InitBuffers prepares the receive path starting at the per-sub-stream
// sequence startSeq (the Tp-shifted join position).
func (n *Node) InitBuffers(startSeq int64) error {
	k := int64(n.cfg.Layout.K)
	sb, err := buffer.NewSyncBuffer(n.cfg.Layout, startSeq*k)
	if err != nil {
		return err
	}
	cb, err := buffer.NewCacheBuffer(n.cfg.BufferBlocks*k, startSeq*k)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return fmt.Errorf("netpeer: buffers already initialised")
	}
	n.sb, n.cb = sb, cb
	n.start = startSeq
	n.started = true
	return nil
}

// Listen starts accepting partnerships on a loopback port and the
// periodic BM exchange. Returns the bound address.
func (n *Node) Listen() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	n.ln = ln
	n.wg.Add(2)
	go n.acceptLoop()
	go n.bmLoop()
	return ln.Addr().String(), nil
}

// Addr returns the listen address ("" before Listen).
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if n.hsSem != nil {
			select {
			case n.hsSem <- struct{}{}:
			default:
				// Handshake concurrency bound hit: shed the connection
				// before spending a goroutine on it. The dialer sees a
				// closed socket and retries through its backoff.
				n.adm.handshakesShed.Add(1)
				c.Close()
				continue
			}
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			cn, fr := n.handleInbound(c)
			if n.hsSem != nil {
				// The slot covers the handshake only: a partnership may
				// run for hours and must not hold it.
				<-n.hsSem
			}
			if cn == nil {
				c.Close()
				return
			}
			n.readLoop(cn, fr)
		}()
	}
}

// handleInbound performs the accept side of the partnership handshake
// and returns the registered partnership, or nil when it was refused.
func (n *Node) handleInbound(c net.Conn) (*conn, *protocol.FrameReader) {
	c.SetReadDeadline(time.Now().Add(n.cfg.HandshakeTimeout))
	fr := protocol.NewFrameReaderLimit(c, n.cfg.MaxFrameBytes)
	req, err := fr.Read()
	if err != nil || req.Type != protocol.TypePartnerRequest {
		return nil, nil
	}
	cn := &conn{peer: req.From, wt: n.cfg.WriteTimeout, c: c, n: n}
	if req.Addr != "" && req.From != n.cfg.ID {
		// The dialer advertised its listen address: remember it so the
		// membership gossip can pass it onwards.
		n.mcacheAdd(req.From, req.Addr)
	}
	if req.From == n.cfg.ID {
		// A request claiming our own ID (self-dial through a tracker
		// echo, or an impersonating peer) must not reach the conns map:
		// registering it would record a self-partnership and evict any
		// legitimate conn keyed on our ID.
		cn.send(protocol.Message{Type: protocol.TypePartnerReject, From: n.cfg.ID, To: req.From})
		return nil, nil
	}
	if !n.reservePartnerSlot(req.From) {
		// Admission control: the partner set is full. Reject, but hand
		// the joiner alternates from the mCache so the storm spreads
		// across the overlay instead of dead-ending here (§II mCache —
		// the same candidates gossip would have carried).
		n.adm.partnersRejected.Add(1)
		cn.send(protocol.Message{
			Type: protocol.TypePartnerReject, From: n.cfg.ID, To: req.From,
			Entries: n.rejectAlternates(req.From),
		})
		return nil, nil
	}
	if err := cn.send(protocol.Message{Type: protocol.TypePartnerAccept, From: n.cfg.ID, To: req.From}); err != nil {
		n.releasePartnerSlot()
		return nil, nil
	}
	c.SetReadDeadline(time.Time{})
	if n.register(cn) != regLive {
		return nil, nil
	}
	n.adm.partnersAdmitted.Add(1)
	return cn, fr
}

// Connect establishes a partnership towards addr and returns the
// remote node's ID. When a concurrent inbound connection from the same
// peer already won the duplicate tie-break, Connect reports success
// over that surviving connection. A full peer's admission reject comes
// back as a *RejectedError whose alternates (already merged into the
// mCache) give the caller somewhere else to try.
func (n *Node) Connect(addr string) (int32, error) {
	dial := n.cfg.Dialer
	if dial == nil {
		dial = net.DialTimeout
	}
	c, err := dial("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return 0, err
	}
	cn := &conn{outgoing: true, wt: n.cfg.WriteTimeout, c: c, n: n}
	if err := cn.send(protocol.Message{Type: protocol.TypePartnerRequest, From: n.cfg.ID, To: -1, Addr: n.Addr()}); err != nil {
		c.Close()
		return 0, err
	}
	c.SetReadDeadline(time.Now().Add(n.cfg.HandshakeTimeout))
	fr := protocol.NewFrameReaderLimit(c, n.cfg.MaxFrameBytes)
	resp, err := fr.Read()
	if err != nil {
		// I/O failure: the peer vanished or sent a malformed frame.
		c.Close()
		return 0, fmt.Errorf("netpeer: handshake read: %w", err)
	}
	if resp.Type == protocol.TypePartnerReject {
		// The peer is full (or refused us). Keep its alternates: they
		// are live candidates the rejecting node vouches for, exactly
		// what the next dial attempt needs.
		c.Close()
		n.adm.rejectsReceived.Add(1)
		var alts []protocol.PeerEntry
		if len(resp.Entries) > 0 {
			alts = append(alts, resp.Entries...)
			n.mcacheMerge(alts)
		}
		return 0, &RejectedError{Peer: resp.From, Alternates: alts}
	}
	if resp.Type != protocol.TypePartnerAccept {
		// The peer answered but spoke out of protocol — a different
		// failure from the read error above.
		c.Close()
		return 0, fmt.Errorf("netpeer: handshake rejected: got %v from %d", resp.Type, resp.From)
	}
	c.SetReadDeadline(time.Time{})
	cn.peer = resp.From
	switch n.register(cn) {
	case regClosed:
		c.Close()
		return 0, fmt.Errorf("netpeer: node closed")
	case regDuplicate:
		// A simultaneous inbound conn from this peer won the tie-break;
		// the partnership is live on that conn.
		c.Close()
		return resp.From, nil
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.readLoop(cn, fr)
	}()
	return resp.From, nil
}

// regStatus is register's outcome.
type regStatus int

const (
	// regLive means cn is now the partnership's connection.
	regLive regStatus = iota
	// regDuplicate means an existing connection won the tie-break and
	// cn must be discarded by the caller.
	regDuplicate
	// regClosed means the node is shut down.
	regClosed
)

// register installs cn as the connection towards cn.peer. When both
// ends dial each other concurrently, each end briefly holds two conns
// for the same partnership; keeping an arbitrary one lets the two ends
// evict opposite conns and close both. The tie-break is therefore
// direction-based and identical on both ends: the connection dialed by
// the lower-ID node survives (the dialer sees it as outgoing, the
// acceptor as incoming, so both resolve to the same TCP connection). A
// same-direction duplicate is a reconnect and supersedes the stale conn.
// An inbound conn arrives holding the partner-slot reservation of
// reservePartnerSlot, which converts into (or is consumed by) the
// registration atomically.
func (n *Node) register(cn *conn) regStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !cn.outgoing {
		n.hsReserved--
	}
	if n.closed {
		return regClosed
	}
	old, dup := n.conns[cn.peer]
	if dup && old.outgoing != cn.outgoing && cn.outgoing != (n.cfg.ID < cn.peer) {
		return regDuplicate
	}
	if dup {
		old.c.Close()
	}
	n.conns[cn.peer] = cn
	cn.seen.Store(time.Now().UnixNano())
	// Attach the batched writer now, while cn is still invisible to
	// other senders; a conn that lost the tie-break never gets one.
	cn.startWriter()
	return regLive
}

// dropPartnerLocked removes a partnership exactly as the readLoop
// teardown does: the conn is forgotten — and with it the partner's
// buffer map, epoch and liveness stamp — and any lane it served is
// orphaned for the adaptation monitor. The caller closes
// cn.c outside the lock; the conn's readLoop defer then finds the map
// entry already gone and no-ops.
func (n *Node) dropPartnerLocked(cn *conn) {
	if n.conns[cn.peer] != cn {
		return
	}
	delete(n.conns, cn.peer)
	for j, p := range n.laneParent {
		if p == cn.peer {
			n.laneParent[j] = -1
		}
	}
}

// readLoop dispatches inbound messages until the connection dies.
func (n *Node) readLoop(cn *conn, fr *protocol.FrameReader) {
	defer func() {
		// Retire the batched writer first so it stops touching the conn,
		// then tear the partnership down.
		cn.closeQueue(errConnClosed)
		cn.c.Close()
		n.mu.Lock()
		// Partner death: drop the conn, forget its stale buffer map
		// (it must not keep feeding the adaptation inequalities),
		// and orphan any lane it was serving so the monitor's next
		// pass re-subscribes it elsewhere.
		n.dropPartnerLocked(cn)
		n.mu.Unlock()
	}()
	// One message reused across frames: every handler below either
	// copies what it keeps (the partner's map into cn.bm, mcacheAdd's
	// strings) or finishes with the data before the next ReadInto
	// overwrites it.
	var m protocol.Message
	for {
		if err := fr.ReadInto(&m); err != nil {
			return
		}
		// Any frame proves the partner's control loop alive.
		cn.seen.Store(time.Now().UnixNano())
		switch m.Type {
		case protocol.TypeBMExchange:
			if m.BM.K() != n.cfg.Layout.K {
				break // not this stream's map: dropped like a delta of the wrong width
			}
			n.mu.Lock()
			cn.bm.CopyFrom(m.BM)
			cn.bmAt = time.Now()
			n.mu.Unlock()
		case protocol.TypeBMDelta:
			n.applyBMDelta(cn, m.Delta)
		case protocol.TypeBMAck:
			n.mu.Lock()
			if m.AckEpoch == cn.bmEpoch {
				cn.bmAcked = true
			}
			n.mu.Unlock()
		case protocol.TypeSubscribe:
			n.startPusher(cn, int(m.SubStream), m.StartSeq)
		case protocol.TypeUnsubscribe:
			n.stopPusher(cn.peer, int(m.SubStream))
			// Bidirectional teardown: a parent whose pusher died sends
			// the same frame so the child orphans the lane immediately
			// instead of waiting out the adaptation inequalities.
			n.orphanLaneFrom(cn.peer, int(m.SubStream))
		case protocol.TypeBlockPush:
			n.receiveBlock(int(m.SubStream), m.StartSeq, m.Payload)
		case protocol.TypeMCacheRequest:
			if reply, ok := n.buildMCacheReply(cn.peer, int(m.Want)); ok {
				cn.send(reply)
			}
		case protocol.TypeMCacheReply:
			n.mcacheMerge(m.Entries)
		case protocol.TypePing:
			// Liveness only; already noted above.
		case protocol.TypeLeave:
			// Graceful departure: forget the peer entirely — gossiping
			// or redialing a departed address only wastes a replenish
			// round.
			n.mu.Lock()
			delete(n.mcache, cn.peer)
			n.mu.Unlock()
			return
		}
	}
}

// applyBMDelta folds one differential buffer-map update into the
// partner's tracked map, in place. A keyframe (absolute delta) replaces
// the map, establishes the conn's receive epoch and is acknowledged,
// closing the sender's resync loop; a relative delta applies only when
// it chains cleanly (epoch matches and a base map exists) — otherwise
// it is dropped and the map simply goes stale until the sender's next
// keyframe, exactly as if the frame were lost. So is any delta that
// does not describe Layout.K lanes: a partner's map is this stream's
// width or absent, and the planner's maxima never see another shape.
func (n *Node) applyBMDelta(cn *conn, d protocol.BMDelta) {
	if d.K() != n.cfg.Layout.K {
		return
	}
	ack := false
	n.mu.Lock()
	if d.Absolute || (cn.rxHave && d.Epoch == cn.rxEpoch) {
		if protocol.ApplyBMDeltaInto(&cn.bm, d) == nil {
			cn.bmAt = time.Now()
			if d.Absolute {
				cn.rxEpoch, cn.rxHave = d.Epoch, true
				ack = true
			}
		}
	}
	n.mu.Unlock()
	if ack {
		cn.send(protocol.Message{
			Type: protocol.TypeBMAck, From: n.cfg.ID, To: cn.peer, AckEpoch: d.Epoch,
		})
	}
}

// orphanLaneFrom resets lane j if peer is its tracked parent — the
// receive side of a parent's pusher-teardown notice.
func (n *Node) orphanLaneFrom(peer int32, j int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if j >= 0 && j < len(n.laneParent) && n.laneParent[j] == peer {
		n.laneParent[j] = -1
	}
}

// SubscribeTracked asks partner peerID to push sub-stream j from
// startSeq and records it as the lane's parent — before the frame goes
// out, so the parent's refusal notice (an Unsubscribe) cannot be
// overwritten by a late record. A failed send leaves the lane orphaned.
func (n *Node) SubscribeTracked(peerID int32, j int, startSeq int64) error {
	n.mu.Lock()
	cn := n.conns[peerID]
	if cn != nil {
		n.laneParent[j] = peerID
	}
	n.mu.Unlock()
	if cn == nil {
		return fmt.Errorf("netpeer: no partnership with %d", peerID)
	}
	err := cn.send(protocol.Message{
		Type: protocol.TypeSubscribe, From: n.cfg.ID, To: peerID,
		SubStream: int16(j), StartSeq: startSeq,
	})
	if err != nil {
		n.orphanLaneFrom(peerID, j)
	}
	return err
}

// LaneParent returns the partner serving sub-stream j (-1 if none).
func (n *Node) LaneParent(j int) int32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.laneParent[j]
}

// startPusher serves one (child, sub-stream) subscription: it pushes
// every block from startSeq on, pacing on the shared upload bucket, and
// waits for new blocks when caught up.
func (n *Node) startPusher(cn *conn, j int, startSeq int64) {
	key := pushKey{peer: cn.peer, sub: j}
	st := &pusherState{}
	n.mu.Lock()
	if n.closed || n.pushers[key] != nil {
		n.mu.Unlock()
		return
	}
	if n.cfg.UploadSlots > 0 && (len(n.pushers) >= n.cfg.UploadSlots || !n.started) {
		// Upload admission: the slot budget is spent (or this node has
		// nothing to serve yet). Refuse loudly — an Unsubscribe notice
		// makes the child orphan the lane and re-plan now, instead of
		// waiting out the adaptation inequalities on a silent lane.
		n.mu.Unlock()
		n.adm.subscribesRejected.Add(1)
		cn.sendTimeout(protocol.Message{
			Type: protocol.TypeUnsubscribe, From: n.cfg.ID, To: cn.peer, SubStream: int16(j),
		}, leaveTimeout(cn.wt))
		return
	}
	n.pushers[key] = st
	n.mu.Unlock()

	blockBits := float64(8 * n.cfg.Layout.BlockBytes)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer func() {
			n.mu.Lock()
			if n.pushers[key] == st {
				delete(n.pushers, key)
			}
			n.mu.Unlock()
		}()
		next := startSeq
		for {
			n.mu.Lock()
			for !n.closed && !st.stop && (n.sb == nil || n.sb.Latest(j) < next) {
				n.cond.Wait()
			}
			if n.closed || st.stop {
				n.mu.Unlock()
				return
			}
			n.mu.Unlock()
			if !n.bkt.take(blockBits) {
				n.abortPusher(cn, j)
				return
			}
			// Shared fan-out: the block is encoded once per (j, seq)
			// and every child's writer enqueues the same buffer.
			frame, err := n.fanFrame(j, next)
			if err == nil {
				err = cn.enqueueShared(frame)
			}
			if err != nil {
				n.abortPusher(cn, j)
				return
			}
			next++
		}
	}()
}

// abortPusher handles a pusher dying abnormally (bucket closed or send
// error): a best-effort teardown notice tells the child to orphan the
// lane immediately instead of discovering the stall via the adaptation
// inequalities. Errors are ignored — the conn may be the reason the
// pusher died.
func (n *Node) abortPusher(cn *conn, j int) {
	n.mu.Lock()
	if n.closed {
		// Close sends Leave itself; a second frame is noise.
		n.mu.Unlock()
		return
	}
	n.rec.PusherAborts++
	n.mu.Unlock()
	cn.sendTimeout(protocol.Message{
		Type: protocol.TypeUnsubscribe, From: n.cfg.ID, To: cn.peer, SubStream: int16(j),
	}, leaveTimeout(cn.wt))
}

// leaveTimeout caps teardown-path writes at one second so shutdown and
// abort notices never stall on a dead peer's full write timeout.
func leaveTimeout(wt time.Duration) time.Duration { return min(wt, time.Second) }

// stopPusher cancels the pusher serving (peer, sub-stream), if any.
func (n *Node) stopPusher(peer int32, j int) {
	n.mu.Lock()
	if st := n.pushers[pushKey{peer: peer, sub: j}]; st != nil {
		st.stop = true
	}
	n.cond.Broadcast()
	n.mu.Unlock()
}

// receiveBlock lands a pushed block in the buffers and updates
// playback state.
func (n *Node) receiveBlock(j int, seq int64, payload []byte) {
	if len(payload) != n.cfg.Layout.BlockBytes {
		return // malformed push; drop
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.started || n.closed {
		return
	}
	combined, err := n.sb.Receive(j, seq)
	if err != nil {
		return
	}
	n.stats.blocksReceived.Add(1)
	if combined > 0 {
		n.cb.Append(combined)
	}
	now := time.Now()
	k := int64(n.cfg.Layout.K)
	if !n.ready && n.sb.Combined() >= (n.start+n.cfg.ReadyBlocks)*k {
		n.ready = true
		n.readyAt = now
	}
	if n.ready && !n.source {
		dueSec := n.cfg.Layout.SeqToSeconds(float64(seq - n.start))
		due := n.readyAt.Add(time.Duration(dueSec * float64(time.Second)))
		n.total++
		if !now.After(due) {
			n.onTime++
		}
	}
	n.cond.Broadcast()
}

// StartSource turns the node into the stream origin: blocks appear in
// its buffers at the live rate, driving all pushers.
func (n *Node) StartSource() error {
	if err := n.InitBuffers(0); err != nil {
		return err
	}
	n.mu.Lock()
	n.source = true
	n.ready = true
	n.readyAt = time.Now()
	n.mu.Unlock()
	interval := time.Duration(float64(time.Second) / n.cfg.Layout.BlocksPerSecond())
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var g int64
		for {
			n.mu.Lock()
			if n.closed {
				n.mu.Unlock()
				return
			}
			j := n.cfg.Layout.SubStream(g)
			seq := n.cfg.Layout.Seq(g)
			if combined, err := n.sb.Receive(j, seq); err == nil && combined > 0 {
				n.cb.Append(combined)
			}
			n.cond.Broadcast()
			n.mu.Unlock()
			g++
			<-ticker.C
		}
	}()
	return nil
}

// bmLoop periodically sends the node's buffer map to every partner.
// Most exchanges are BMDelta frames: the changes versus the last map
// sent on that conn, with an absolute keyframe every
// defaultBMKeyframeEvery exchanges (and after an unacknowledged
// keyframe outlives its grace) so a receiver that lost sync converges
// on the next keyframe. A reconnect is a new conn, so it always starts with a
// keyframe. Layouts with more lanes than a delta can address
// (MaxDeltaLanes) send full BMExchange maps.
func (n *Node) bmLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.BMPeriod)
	defer ticker.Stop()
	// The tick's map and the delta scratch live as long as the loop:
	// every frame is encoded before send returns, so one delta's storage
	// serves every partner of every tick.
	k := n.cfg.Layout.K
	bm := buffer.NewBufferMap(k) // Subscribed stays all-false
	lanes, sub := make([]int64, 0, k), make([]bool, 0, k)
	conns := make([]*conn, 0, 8)
	for {
		select {
		case <-ticker.C:
		case <-n.done:
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		started := n.started
		if started {
			for j := range bm.Latest {
				bm.Latest[j] = n.sb.Latest(j)
			}
		}
		conns = conns[:0]
		for _, cn := range n.conns {
			conns = append(conns, cn)
		}
		n.mu.Unlock()
		for _, cn := range conns {
			var m protocol.Message
			switch {
			case !started:
				// Nothing to advertise yet (buffers not initialised):
				// heartbeat instead, so partners can tell a quiet node
				// from a hung one.
				m = protocol.Message{Type: protocol.TypePing, From: n.cfg.ID, To: cn.peer}
			case k > protocol.MaxDeltaLanes:
				m = protocol.Message{Type: protocol.TypeBMExchange, From: n.cfg.ID, To: cn.peer, BM: bm}
			default:
				m = protocol.Message{Type: protocol.TypeBMDelta, From: n.cfg.ID, To: cn.peer}
				n.mu.Lock()
				key := !cn.bmHave || cn.bmSinceKey+1 >= defaultBMKeyframeEvery ||
					(!cn.bmAcked && cn.bmSinceKey+1 > bmAckGrace)
				// Neither kernel can fail: K >= 1 is validated, and bmSent
				// is K wide whenever bmHave says it was written.
				if key {
					cn.bmEpoch++
					m.Delta, _ = protocol.KeyBMInto(lanes, sub, bm, cn.bmEpoch)
					cn.bmAcked, cn.bmSinceKey = false, 0
				} else {
					m.Delta, _ = protocol.DiffBMInto(lanes, sub, cn.bmSent, bm, cn.bmEpoch)
					cn.bmSinceKey++
				}
				cn.bmSent.CopyFrom(bm)
				cn.bmHave = true
				n.mu.Unlock()
			}
			if err := cn.send(m); err != nil {
				cn.bmFails++
				if cn.bmFails >= bmFailLimit {
					// A partner that persistently cannot take BM traffic
					// is dead weight for the adaptation planner: tear it
					// down through the maintenance path instead of
					// silently failing forever.
					n.mu.Lock()
					n.dropPartnerLocked(cn)
					n.rec.BMFailTeardowns++
					n.mu.Unlock()
					cn.c.Close()
				}
				continue
			}
			cn.bmFails = 0
		}
	}
}

// Latest returns the latest received sequence on sub-stream j (-1
// before InitBuffers).
func (n *Node) Latest(j int) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.started {
		return -1
	}
	return n.sb.Latest(j)
}

// Combined returns the combined contiguous prefix in global blocks.
func (n *Node) Combined() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.started {
		return 0
	}
	return n.sb.Combined()
}

// Ready reports whether playback started.
func (n *Node) Ready() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ready
}

// Continuity returns on-time blocks over due blocks (1 before any
// block was due).
func (n *Node) Continuity() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.total == 0 {
		return 1
	}
	return float64(n.onTime) / float64(n.total)
}

// PartnerBM returns a copy of the last buffer map received from a
// partner on its current connection (the record itself is rewritten in
// place by the read loop).
func (n *Node) PartnerBM(peer int32) (buffer.BufferMap, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cn := n.conns[peer]
	if cn == nil || cn.bmAt.IsZero() {
		return buffer.BufferMap{}, false
	}
	return cn.bm.Clone(), true
}

// Partners returns the current partner IDs in ascending order.
func (n *Node) Partners() []int32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partnerIDsLocked()
}

// connsLocked snapshots the partner records for use outside the lock.
func (n *Node) connsLocked() []*conn {
	out := make([]*conn, 0, len(n.conns))
	for _, cn := range n.conns {
		out = append(out, cn)
	}
	return out
}

// partnerIDsLocked lists the partner set in ascending ID order, so a
// policy that walks it is a pure function of the set, not of map order.
func (n *Node) partnerIDsLocked() []int32 {
	out := make([]int32, 0, len(n.conns))
	for id := range n.conns {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Close shuts the node down gracefully — partners get a Leave frame
// (under a short write deadline, so a dead partner cannot stall
// shutdown), the tracker a Leave call if maintenance attached one —
// and waits for its goroutines.
func (n *Node) Close() { n.shutdown(true) }

// Abort shuts the node down WITHOUT announcing departure: no Leave
// frames, no tracker deregistration. Partners see the TCP connections
// die, exactly as with a crashed or power-cycled peer — the chaos
// harness's peer-kill primitive.
func (n *Node) Abort() { n.shutdown(false) }

func (n *Node) shutdown(graceful bool) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.done)
	n.cond.Broadcast()
	conns := n.connsLocked()
	boot := n.boot
	n.mu.Unlock()
	n.bkt.close()
	if n.ln != nil {
		n.ln.Close()
	}
	for _, cn := range conns {
		if graceful {
			cn.sendTimeout(protocol.Message{Type: protocol.TypeLeave, From: n.cfg.ID, To: cn.peer},
				leaveTimeout(cn.wt))
		}
		cn.c.Close()
	}
	if graceful && boot != nil {
		// Best-effort tracker deregistration, mirroring the Leave frames.
		boot.Leave(n.cfg.ID)
	}
	n.wg.Wait()
}
