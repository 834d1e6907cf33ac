package netpeer

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/protocol"
)

// TestBatchedWriterCoalesces enqueues a burst of frames on one writer
// and checks the flush budget turns many frames into few writes.
func TestBatchedWriterCoalesces(t *testing.T) {
	n := mustNode(t, testConfig(1, 0))
	a, b := net.Pipe()
	defer a.Close()
	cn := &conn{peer: 2, wt: 2 * time.Second, c: a, n: n}
	n.mu.Lock()
	cn.startWriter()
	n.mu.Unlock()

	// Drain the far end so writes complete.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 64*1024)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()

	const frames = 200
	for i := 0; i < frames; i++ {
		err := cn.enqueueMsg(protocol.Message{
			Type: protocol.TypePing, From: 1, To: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, func() bool {
		cn.qmu.Lock()
		defer cn.qmu.Unlock()
		return len(cn.q) == 0
	}, "writer never drained the queue")

	st := n.Stats()
	if st.FramesSent != frames {
		t.Fatalf("FramesSent = %d, want %d", st.FramesSent, frames)
	}
	// A burst of 200 tiny frames against a 2ms linger must coalesce
	// heavily; even on a slow machine the first flush takes everything
	// enqueued during the previous write.
	if st.WriteCalls > frames/3 {
		t.Fatalf("WriteCalls = %d for %d frames: no coalescing", st.WriteCalls, frames)
	}
	cn.closeQueue(errConnClosed)
	b.Close()
	<-drained
}

// blockingConn is a net.Conn whose writes block until the conn is
// closed — a partner that never drains its socket.
type blockingConn struct {
	net.Conn
	once sync.Once
	dead chan struct{}
}

func newBlockingConn() *blockingConn {
	a, _ := net.Pipe()
	return &blockingConn{Conn: a, dead: make(chan struct{})}
}

func (c *blockingConn) Write(p []byte) (int, error) {
	<-c.dead
	return 0, errors.New("blockingConn: closed")
}

func (c *blockingConn) SetWriteDeadline(time.Time) error { return nil }

func (c *blockingConn) Close() error {
	c.once.Do(func() { close(c.dead) })
	return c.Conn.Close()
}

// TestSlowPartnerOverflowTearsDown fills a bounded queue against a
// partner that never drains and checks the overflow tears the
// partnership down instead of buffering without bound.
func TestSlowPartnerOverflowTearsDown(t *testing.T) {
	cfg := testConfig(1, 0)
	cfg.QueueBytes = 4 * 1024
	n := mustNode(t, cfg)
	cn := &conn{peer: 2, wt: time.Second, c: newBlockingConn(), n: n}
	n.mu.Lock()
	cn.startWriter()
	n.mu.Unlock()

	payload := make([]byte, 900)
	var overflow error
	for i := 0; i < 64; i++ {
		err := cn.enqueueMsg(protocol.Message{
			Type: protocol.TypeBlockPush, From: 1, To: 2,
			SubStream: 0, StartSeq: int64(i), Payload: payload,
		})
		if err != nil {
			overflow = err
			break
		}
	}
	if !errors.Is(overflow, errSlowPartner) {
		t.Fatalf("overflow error = %v, want errSlowPartner", overflow)
	}
	if got := n.Recovery().SlowPartnerTeardowns; got != 1 {
		t.Fatalf("SlowPartnerTeardowns = %d, want 1", got)
	}
	// Subsequent sends fail fast with the queue error.
	if err := cn.send(protocol.Message{Type: protocol.TypePing, From: 1, To: 2}); err == nil {
		t.Fatal("send after overflow succeeded")
	}
}

// failSwitchConn fails every write once armed — a partner whose socket
// went one-way dead after the handshake. While armed, Close is
// swallowed too: the read side stays silently open, so the readLoop
// never notices and only the BM loop can tear the partnership down.
type failSwitchConn struct {
	net.Conn
	mu   sync.Mutex
	fail bool
}

func (c *failSwitchConn) arm() {
	c.mu.Lock()
	c.fail = true
	c.mu.Unlock()
}

func (c *failSwitchConn) armed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fail
}

func (c *failSwitchConn) Write(p []byte) (int, error) {
	if c.armed() {
		return 0, errors.New("failSwitchConn: armed")
	}
	return c.Conn.Write(p)
}

func (c *failSwitchConn) Close() error {
	if c.armed() {
		return nil
	}
	return c.Conn.Close()
}

// TestBMSendFailureTearsDownPartner checks the bmLoop teardown: the
// injected write failure retires the batched writer, every later BM
// enqueue fails fast on the dead queue, and after bmFailLimit of them
// the BM loop drops the partnership instead of failing silently
// forever.
func TestBMSendFailureTearsDownPartner(t *testing.T) {
	srv := mustNode(t, testConfig(2, 0))
	addr := mustListen(t, srv)

	var fsc *failSwitchConn
	cfg := testConfig(1, 0)
	cfg.BMPeriod = 30 * time.Millisecond
	cfg.Dialer = func(network, address string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout(network, address, timeout)
		if err != nil {
			return nil, err
		}
		fsc = &failSwitchConn{Conn: c}
		return fsc, nil
	}
	n := mustNode(t, cfg)
	mustListen(t, n)
	if _, err := n.Connect(addr); err != nil {
		t.Fatal(err)
	}
	if len(n.Partners()) != 1 {
		t.Fatal("no partnership established")
	}
	// Runs before n.Close (cleanups are LIFO): really close the socket
	// so the parked readLoop exits and Close can join it.
	t.Cleanup(func() { fsc.Conn.Close() })
	fsc.arm()
	waitFor(t, 3*time.Second, func() bool {
		return len(n.Partners()) == 0
	}, "partner with dead write path never torn down")
	if got := n.Recovery().BMFailTeardowns; got < 1 {
		t.Fatalf("BMFailTeardowns = %d, want >= 1", got)
	}
}

// rawPartner dials addr and performs the partner handshake by hand as
// node `from`, returning the socket for the test to speak raw frames
// on; it is closed with the test.
func rawPartner(t *testing.T, addr string, from int32) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := protocol.WriteFrame(c, protocol.Message{
		Type: protocol.TypePartnerRequest, From: from, To: -1,
	}); err != nil {
		t.Fatal(err)
	}
	if resp, err := protocol.ReadFrame(c); err != nil || resp.Type != protocol.TypePartnerAccept {
		t.Fatalf("handshake: %v %v", resp.Type, err)
	}
	return c
}

// TestPartnerConnRejectsOversizedFrame checks the per-listener frame
// bound: a partner connection configured for small blocks must drop a
// peer that sends a frame beyond the bound instead of allocating it.
func TestPartnerConnRejectsOversizedFrame(t *testing.T) {
	cfg := testConfig(1, 0)
	cfg.MaxFrameBytes = 1024
	n := mustNode(t, cfg)
	addr := mustListen(t, n)

	c := rawPartner(t, addr, 9)
	waitFor(t, 2*time.Second, func() bool { return len(n.Partners()) == 1 }, "no partnership")

	// 4 KiB push blows the 1 KiB bound; the node must kill the conn.
	if err := protocol.WriteFrame(c, protocol.Message{
		Type: protocol.TypeBlockPush, From: 9, To: 1,
		SubStream: 0, StartSeq: 0, Payload: make([]byte, 4096),
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(n.Partners()) == 0 },
		"oversized frame did not tear the conn down")
}

// TestFanOutSharesEncodedFrames runs a source pushing the same lanes to
// several children and checks blocks are encoded once, not per child.
func TestFanOutSharesEncodedFrames(t *testing.T) {
	src := mustNode(t, testConfig(0, 0))
	addr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}

	const children = 3
	kids := make([]*Node, 0, children)
	for i := int32(1); i <= children; i++ {
		kid := mustNode(t, testConfig(i, 0))
		mustListen(t, kid)
		if _, err := kid.Connect(addr); err != nil {
			t.Fatal(err)
		}
		if err := kid.InitBuffers(0); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < testLayout.K; j++ {
			if err := kid.SubscribeTracked(0, j, 0); err != nil {
				t.Fatal(err)
			}
		}
		kids = append(kids, kid)
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, kid := range kids {
			if kid.Combined() < 20*int64(testLayout.K) {
				return false
			}
		}
		return true
	}, "children never received blocks")

	st := src.Stats()
	if st.BlockFrames == 0 || st.FanEncodes == 0 {
		t.Fatalf("no fan-out traffic: %+v", st)
	}
	// Every block frame comes off the fan path (fan counters tick just
	// before the frame is accounted, so under concurrent pushing the
	// snapshot can only over-count the fan side).
	if st.FanEncodes+st.FanShared < st.BlockFrames {
		t.Fatalf("fan accounting: %d encodes + %d shared < %d block frames",
			st.FanEncodes, st.FanShared, st.BlockFrames)
	}
	// Three children pulling the same blocks: most frames must come
	// from the shared cache, not fresh encodes.
	if st.FanShared < st.FanEncodes {
		t.Fatalf("fan-out barely shared: %d encodes vs %d shared", st.FanEncodes, st.FanShared)
	}
}

// TestBMDeltaReducesSignallingBytes checks the steady-state BM frame
// is a small delta, not a full map, and that partner maps still track
// the sender's progress end to end (including acks keeping the epoch
// acknowledged so the sender is not forced into re-keying).
func TestBMDeltaReducesSignallingBytes(t *testing.T) {
	cfg := testConfig(0, 0)
	cfg.BMPeriod = 30 * time.Millisecond
	src := mustNode(t, cfg)
	addr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}
	peerCfg := testConfig(1, 0)
	peerCfg.BMPeriod = 30 * time.Millisecond
	peer := mustNode(t, peerCfg)
	mustListen(t, peer)
	if _, err := peer.Connect(addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool {
		bm, ok := peer.PartnerBM(0)
		return ok && bm.MaxLatest() > 20
	}, "partner map never tracked source progress")

	st := src.Stats()
	if st.BMFrames < 10 {
		t.Fatalf("only %d BM frames after warmup", st.BMFrames)
	}
	// Full K=4 BMExchange frames run ~48 bytes on the wire; deltas with
	// one ack per keyframe must keep the average well under that.
	avg := float64(st.BMBytes) / float64(st.BMFrames)
	if avg > 25 {
		t.Fatalf("average BM frame %.1f bytes: deltas not in effect", avg)
	}
}

// TestFullMapBMExchangeStillApplied speaks the wire protocol by hand as
// a partner that only ever sends full bm-exchange maps — what a layout
// wider than MaxDeltaLanes sends — and checks the node applies them
// next to the deltas it sends itself.
func TestFullMapBMExchangeStillApplied(t *testing.T) {
	n := mustNode(t, testConfig(1, 0))
	addr := mustListen(t, n)

	c := rawPartner(t, addr, 9)
	bm := buffer.NewBufferMap(testLayout.K)
	for j := range bm.Latest {
		bm.Latest[j] = int64(40 + j)
	}
	if err := protocol.WriteFrame(c, protocol.Message{
		Type: protocol.TypeBMExchange, From: 9, To: 1, BM: bm,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		got, ok := n.PartnerBM(9)
		return ok && got.K() == testLayout.K && got.MaxLatest() == bm.MaxLatest()
	}, "full-map bm-exchange never applied")
}
