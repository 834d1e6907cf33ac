package netpeer

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/protocol"
)

// fastLayout runs the lifetime and budget tests at 312 blocks/s (78 per
// sub-stream), so hundreds of fan-cache evictions take a second or two.
var fastLayout = buffer.Layout{K: 4, RateBps: 2e6, BlockBytes: 800}

// handConn builds a partner record with a batched writer over c, as
// register would but outside the partner set: pushers can serve it, the
// BM loop does not see it. The writer is retired with the test.
func handConn(t *testing.T, n *Node, peer int32, c net.Conn) *conn {
	t.Helper()
	cn := &conn{peer: peer, wt: 30 * time.Second, c: c, n: n}
	n.mu.Lock()
	cn.startWriter()
	n.mu.Unlock()
	// Runs before the node's Close (cleanups are LIFO), which waits for
	// the writer: no read loop exists to retire it.
	t.Cleanup(func() {
		cn.closeQueue(errConnClosed)
		c.Close()
	})
	return cn
}

// subscribeAll joins kid to the node at addr and subscribes every lane
// from the stream head.
func subscribeAll(t *testing.T, kid *Node, addr string, k int) {
	t.Helper()
	parent, err := kid.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := kid.InitBuffers(0); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		if err := kid.SubscribeTracked(parent, j, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStalledChildReadsIntactFramesAfterEviction is the frame-lifetime
// contract end to end: shared fan-out buffers are recycled, so a buffer
// must not be rewritten while any writer queue still points at it. One
// child stops reading until its queue holds frames the 128-slot cache
// evicted hundreds of encodes ago — encodes two live children keep
// forcing, each drawing on the free list — and then resumes: every
// frame it decodes must be a whole block push, every lane's sequence
// consecutive from 0. A buffer recycled early would surface as a later
// block in an earlier frame's place (and, under -race, as a write racing
// the stalled writer's read).
func TestStalledChildReadsIntactFramesAfterEviction(t *testing.T) {
	cfg := testConfig(0, 0)
	cfg.Layout = fastLayout
	cfg.QueueBytes = 2 << 20 // the stall below queues ~400 KiB; overflow is another test's subject
	src := mustNode(t, cfg)
	addr := mustListen(t, src)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe() // unbuffered: the writer blocks until far is read
	defer far.Close()
	stalled := handConn(t, src, 99, near)
	for j := 0; j < fastLayout.K; j++ {
		src.startPusher(stalled, j, 0)
	}
	for i := int32(1); i <= 2; i++ {
		kidCfg := testConfig(i, 0)
		kidCfg.Layout = fastLayout
		kid := mustNode(t, kidCfg)
		mustListen(t, kid)
		subscribeAll(t, kid, addr, fastLayout.K)
	}

	const evictions = 300
	waitFor(t, 20*time.Second, func() bool {
		return src.Stats().FanEncodes >= fanCacheCap+evictions
	}, "live children never forced the evictions")
	stalled.qmu.Lock()
	queued := len(stalled.q)
	var oldestRefs int32
	if queued > 0 {
		oldestRefs = stalled.q[0].fan.refs.Load()
	}
	stalled.qmu.Unlock()
	if queued < evictions {
		t.Fatalf("stalled child's queue holds %d frames: it was not stalled", queued)
	}
	if oldestRefs != 1 {
		t.Fatalf("oldest queued frame has %d references, want 1 (the queue's own: the cache evicted it long ago)", oldestRefs)
	}

	// Resume, and read past everything that was queued during the stall.
	fr := protocol.NewFrameReader(far)
	next := make([]int64, fastLayout.K)
	var m protocol.Message
	far.SetReadDeadline(time.Now().Add(20 * time.Second))
	for read := 0; read < queued+fanCacheCap; read++ {
		if err := fr.ReadInto(&m); err != nil {
			t.Fatalf("frame %d: %v", read, err)
		}
		if m.Type != protocol.TypeBlockPush || len(m.Payload) != fastLayout.BlockBytes ||
			int(m.SubStream) >= fastLayout.K {
			t.Fatalf("frame %d is not a block push of this stream: %v lane %d, %d payload bytes",
				read, m.Type, m.SubStream, len(m.Payload))
		}
		if m.StartSeq != next[m.SubStream] {
			t.Fatalf("frame %d: lane %d carries seq %d, want %d", read, m.SubStream, m.StartSeq, next[m.SubStream])
		}
		next[m.SubStream]++
	}
	src.fanMu.Lock()
	free := len(src.fanFree)
	src.fanMu.Unlock()
	if free > fanCacheCap {
		t.Fatalf("free list holds %d buffers, bound is %d", free, fanCacheCap)
	}
	if st := src.Stats(); st.FanShared < st.FanEncodes {
		t.Fatalf("three children barely shared: %d encodes, %d shared", st.FanEncodes, st.FanShared)
	}
}

// TestQueuedFrameReferencesAlwaysReturn walks every way a shared frame
// leaves a writer queue — flushed, refused by a full queue, refused by a
// dead queue, dropped with the queue — and checks each gives its
// reference back; then that buffers whose last reference goes come back
// through the free list, which never outgrows its bound.
func TestQueuedFrameReferencesAlwaysReturn(t *testing.T) {
	cfg := testConfig(1, 0)
	cfg.QueueBytes = 4 * 1024 // four 827-byte frames fit, the fifth overflows
	n := mustNode(t, cfg)
	seq := int64(0)
	allocated := map[*fanBuf]bool{}
	frame := func() *fanBuf {
		t.Helper()
		fb, err := n.fanFrame(0, seq)
		seq++
		if err != nil {
			t.Fatal(err)
		}
		allocated[fb] = true
		if got := fb.refs.Load(); got != 2 {
			t.Fatalf("fresh frame has %d references, want 2 (cache slot + caller)", got)
		}
		return fb
	}
	cacheOnly := func(what string, fbs ...*fanBuf) {
		t.Helper()
		waitFor(t, 3*time.Second, func() bool {
			for _, fb := range fbs {
				if fb.refs.Load() != 1 {
					return false
				}
			}
			return true
		}, what+": a queue entry kept its reference")
	}

	// Flushed: the writer copies the frame out and lets go.
	near, far := net.Pipe()
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := far.Read(buf); err != nil {
				return
			}
		}
	}()
	live := handConn(t, n, 2, near)
	t.Cleanup(func() { far.Close() })
	flushed := frame()
	if err := live.enqueueShared(flushed); err != nil {
		t.Fatal(err)
	}
	cacheOnly("flush", flushed)
	// A second holder of the same block shares the buffer.
	again, err := n.fanFrame(0, seq-1)
	if err != nil || again != flushed || again.refs.Load() != 2 {
		t.Fatalf("cache hit returned %p with %d references, want %p with 2", again, again.refs.Load(), flushed)
	}
	n.fanUnref(again)

	// QueueBytes overflow: the refused frame and, once the writer has
	// seen the error, every frame still queued.
	slow := handConn(t, n, 3, newBlockingConn())
	var queued []*fanBuf
	var overflow error
	for overflow == nil {
		fb := frame()
		queued = append(queued, fb)
		overflow = slow.enqueueShared(fb)
	}
	if !errors.Is(overflow, errSlowPartner) {
		t.Fatalf("overflow error = %v, want errSlowPartner", overflow)
	}
	cacheOnly("overflow", queued...)

	// A dead queue refuses at once.
	refused := frame()
	if err := slow.enqueueShared(refused); err == nil {
		t.Fatal("enqueue on a torn-down queue succeeded")
	}
	cacheOnly("dead queue", refused)

	// Dropped with the queue: the partnership ends with frames waiting.
	stuck := handConn(t, n, 4, newBlockingConn())
	var waiting []*fanBuf
	for i := 0; i < 4; i++ {
		fb := frame()
		waiting = append(waiting, fb)
		if err := stuck.enqueueShared(fb); err != nil {
			t.Fatal(err)
		}
	}
	stuck.closeQueue(errConnClosed)
	stuck.c.Close()
	cacheOnly("dropped queue", waiting...)

	// Hold two caches' worth of frames as a queue would, let the cache
	// evict them all, then let go at once: the free list takes what its
	// bound allows and no more, and later encodes draw on it.
	held := make([]*fanBuf, 0, 2*fanCacheCap)
	for i := 0; i < 2*fanCacheCap; i++ {
		held = append(held, frame())
	}
	for i := 0; i < fanCacheCap; i++ {
		n.fanUnref(frame())
	}
	for _, fb := range held {
		if got := fb.refs.Load(); got != 1 {
			t.Fatalf("evicted frame still held by a queue has %d references, want 1", got)
		}
		n.fanUnref(fb)
	}
	n.fanMu.Lock()
	free := len(n.fanFree)
	n.fanMu.Unlock()
	if free != fanCacheCap {
		t.Fatalf("free list holds %d buffers after a burst of %d releases, want its bound %d", free, len(held), fanCacheCap)
	}
	buffers := len(allocated)
	for i := 0; i < 2*fanCacheCap; i++ {
		fb := frame()
		if len(allocated) != buffers {
			t.Fatalf("encode %d allocated a buffer with the free list stocked", i)
		}
		if len(fb.buf) != protocol.BlockPushOverhead+testLayout.BlockBytes || cap(fb.buf) != len(fb.buf) {
			t.Fatalf("frame buffer len %d cap %d, want exactly %d", len(fb.buf), cap(fb.buf),
				protocol.BlockPushOverhead+testLayout.BlockBytes)
		}
		n.fanUnref(fb)
	}
}

// TestLivePlaneAllocationBudget counts mallocs across a running
// source → relay → two leaves tree: once partnerships have settled,
// pushing blocks and exchanging buffer maps must cost (almost) nothing
// per delivered block — the fan-out frames, the map exchange on both
// ends and the frame decoder all work in storage they keep. What the
// budget leaves room for is the runtime's own timers and the test's
// polling. Before this contract the same loop cost about 3 per block.
func TestLivePlaneAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	mk := func(id int32) (*Node, string) {
		cfg := testConfig(id, 0)
		cfg.Layout = fastLayout
		cfg.BMPeriod = 20 * time.Millisecond
		n := mustNode(t, cfg)
		return n, mustListen(t, n)
	}
	src, srcAddr := mk(0)
	if err := src.StartSource(); err != nil {
		t.Fatal(err)
	}
	relay, relayAddr := mk(1)
	subscribeAll(t, relay, srcAddr, fastLayout.K)
	leaves := make([]*Node, 2)
	for i := range leaves {
		leaves[i], _ = mk(int32(2 + i))
		subscribeAll(t, leaves[i], relayAddr, fastLayout.K)
	}
	delivered := func() uint64 {
		return relay.Stats().BlocksReceived + leaves[0].Stats().BlocksReceived + leaves[1].Stats().BlocksReceived
	}
	// Warm up past the fan cache's fill (128 encodes per serving node)
	// and every buffer's growth.
	const warm, measured = 1500, 2400
	waitFor(t, 20*time.Second, func() bool { return delivered() >= warm }, "tree never warmed up")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	from := delivered()
	for deadline := time.Now().Add(30 * time.Second); delivered() < from+measured; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d blocks delivered in the measured window", delivered()-from, measured)
		}
		time.Sleep(50 * time.Millisecond)
	}
	blocks := delivered() - from
	runtime.ReadMemStats(&after)
	perBlock := float64(after.Mallocs-before.Mallocs) / float64(blocks)
	t.Logf("%d mallocs over %d delivered blocks: %.3f per block, %.1f B per block",
		after.Mallocs-before.Mallocs, blocks, perBlock, float64(after.TotalAlloc-before.TotalAlloc)/float64(blocks))
	if perBlock > 0.5 {
		t.Fatalf("%.2f mallocs per delivered block, budget 0.5", perBlock)
	}
}
