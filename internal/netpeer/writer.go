package netpeer

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"coolstream/internal/protocol"
)

// Batched partner writer. Each live partner connection owns one writer
// goroutine draining a bounded outbound queue of pre-encoded frames.
// Senders (BM loop, pushers, control handlers) enqueue and return
// immediately; the writer coalesces whatever has accumulated into a
// single Write call, bounded by a flush budget: at most
// defaultFlushBytes per write, lingering at most Config.FlushDelay for
// more frames to arrive. Under load the linger never triggers (the
// queue is never empty), so throughput costs one syscall per
// ~defaultFlushBytes instead of one per frame; when idle a frame
// reaches the wire within FlushDelay.
//
// Backpressure contract: the queue is bounded by Config.QueueBytes. A
// partner that cannot drain its own traffic fills the queue, and the
// overflow tears the partnership down (errSlowPartner) rather than
// buffering without bound or blocking the sender's control loops — the
// same fate a stale partner meets, discovered sooner.

const (
	// defaultFlushBytes caps one coalesced write.
	defaultFlushBytes = 64 * 1024
	defaultFlushDelay = 2 * time.Millisecond
	defaultQueueBytes = 256 * 1024
	// defaultBMKeyframeEvery is the period, in BM exchanges, of absolute
	// keyframes between differential updates.
	defaultBMKeyframeEvery = 16
	// bmAckGrace is how many deltas may follow an unacknowledged
	// keyframe before the sender re-keys (the ack closes the loop on
	// receivers that missed the keyframe's epoch).
	bmAckGrace = 4
	// bmFailLimit is how many consecutive BM send failures a partner
	// may accumulate before the BM loop tears the partnership down.
	bmFailLimit = 3
	// fanCacheCap bounds the shared fan-out frame cache, and the free
	// list of frame buffers behind it (see fanFrame).
	fanCacheCap = 128
)

var (
	errSlowPartner = errors.New("netpeer: slow partner: outbound queue overflow")
	errConnClosed  = errors.New("netpeer: connection closed")
)

// outFrame is one encoded frame awaiting flush. Exactly one of bp and
// fan is set.
type outFrame struct {
	buf []byte
	// bp is the pool box to return after flushing a frame encoded for
	// this conn alone.
	bp *[]byte
	// fan is the shared fan-out frame buf belongs to; this entry holds
	// one reference to it.
	fan *fanBuf
}

// encPool recycles per-frame encode buffers across all connections.
var encPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// release gives the frame's buffer back — to the pool, or one reference
// to node n's fan-out cache. Every path that takes a frame off a queue,
// flushed or not, ends here.
func (f *outFrame) release(n *Node) {
	if f.bp != nil {
		*f.bp = f.buf[:0]
		encPool.Put(f.bp)
		f.bp = nil
	}
	if f.fan != nil {
		n.fanUnref(f.fan)
		f.fan = nil
	}
	f.buf = nil
}

// startWriter attaches the writer goroutine to cn. Called under n.mu by
// register, before the conn is visible to any sender, so writerOn needs
// no further synchronisation.
func (cn *conn) startWriter() {
	cn.qcond = sync.NewCond(&cn.qmu)
	cn.writerOn = true
	cn.n.wg.Add(1)
	go cn.writerLoop()
}

// enqueueMsg encodes m into a pooled buffer and queues it for the
// writer.
func (cn *conn) enqueueMsg(m protocol.Message) error {
	bp := encPool.Get().(*[]byte)
	buf, err := protocol.AppendFrame((*bp)[:0], m)
	if err != nil {
		encPool.Put(bp)
		return err
	}
	*bp = buf
	return cn.enqueue(outFrame{buf: buf, bp: bp}, m.Type)
}

// enqueueShared queues a pre-encoded frame shared across partners (the
// fan-out block path), taking over the reference fanFrame handed out.
func (cn *conn) enqueueShared(fb *fanBuf) error {
	return cn.enqueue(outFrame{buf: fb.buf, fan: fb}, protocol.TypeBlockPush)
}

func (cn *conn) enqueue(f outFrame, typ protocol.MsgType) error {
	size := len(f.buf)
	cn.qmu.Lock()
	if cn.qErr != nil {
		err := cn.qErr
		cn.qmu.Unlock()
		f.release(cn.n)
		return err
	}
	if cn.qBytes+size > cn.n.cfg.QueueBytes {
		cn.qErr = errSlowPartner
		cn.qcond.Broadcast()
		cn.qmu.Unlock()
		f.release(cn.n)
		// Wake the readLoop, which owns partner teardown.
		cn.c.Close()
		cn.n.mu.Lock()
		cn.n.rec.SlowPartnerTeardowns++
		cn.n.mu.Unlock()
		return errSlowPartner
	}
	cn.q = append(cn.q, f)
	cn.qBytes += size
	cn.qcond.Signal()
	cn.qmu.Unlock()
	cn.n.stats.countFrame(typ, size)
	return nil
}

// closeQueue wakes and retires the writer. Safe on conns without one.
func (cn *conn) closeQueue(err error) {
	if !cn.writerOn {
		return
	}
	cn.qmu.Lock()
	if cn.qErr == nil {
		cn.qErr = err
	}
	cn.qcond.Broadcast()
	cn.qmu.Unlock()
}

// dropQueueLocked releases every queued frame (qmu held).
func (cn *conn) dropQueueLocked() {
	for i := range cn.q {
		cn.q[i].release(cn.n)
	}
	cn.q = nil
	cn.qBytes = 0
}

func (cn *conn) writerLoop() {
	n := cn.n
	defer n.wg.Done()
	flushDelay := n.cfg.FlushDelay
	// flush grows with the bursts this conn actually sees, up to the
	// defaultFlushBytes the loop below takes per write.
	var flush []byte
	for {
		cn.qmu.Lock()
		for len(cn.q) == 0 && cn.qErr == nil {
			cn.qcond.Wait()
		}
		if cn.qErr != nil {
			cn.dropQueueLocked()
			cn.qmu.Unlock()
			return
		}
		if flushDelay > 0 && cn.qBytes < defaultFlushBytes {
			// Linger briefly so a burst in flight coalesces into this
			// write instead of the next one.
			cn.qmu.Unlock()
			time.Sleep(flushDelay)
			cn.qmu.Lock()
			if cn.qErr != nil {
				cn.dropQueueLocked()
				cn.qmu.Unlock()
				return
			}
		}
		flush = flush[:0]
		taken := 0
		for i := range cn.q {
			f := &cn.q[i]
			// Always take at least one frame, even one above the budget.
			if taken > 0 && len(flush)+len(f.buf) > defaultFlushBytes {
				break
			}
			flush = append(flush, f.buf...)
			f.release(n)
			taken++
		}
		rest := copy(cn.q, cn.q[taken:])
		clear(cn.q[rest:])
		cn.q = cn.q[:rest]
		cn.qBytes -= len(flush)
		cn.qmu.Unlock()

		// wmu serialises against direct teardown-path writes (Leave,
		// abort notices) so frames never interleave mid-stream.
		cn.wmu.Lock()
		err := cn.c.SetWriteDeadline(time.Now().Add(cn.wt))
		if err == nil {
			_, err = cn.c.Write(flush)
		}
		cn.wmu.Unlock()
		if err != nil {
			cn.qmu.Lock()
			if cn.qErr == nil {
				cn.qErr = err
			}
			cn.dropQueueLocked()
			cn.qcond.Broadcast()
			cn.qmu.Unlock()
			cn.c.Close()
			return
		}
		n.stats.writeCalls.Add(1)
		n.stats.bytesSent.Add(uint64(len(flush)))
	}
}

// fanBuf is one shared encoded BlockPush frame. refs counts its
// holders — the cache slot, and every writer-queue entry that points at
// buf — and the last one to let go returns it to the node's free list:
// buf is rewritten only once the cache has evicted it and every writer
// has flushed or dropped it.
type fanBuf struct {
	buf  []byte
	refs atomic.Int32
}

// fanSlot is one cache entry: the block it holds and its frame.
type fanSlot struct {
	j   int
	seq int64
	fb  *fanBuf
}

// fanFrame returns the shared encoded BlockPush frame for block (j,
// seq), with one reference taken for the caller's queue entry: a source
// (or relay) pushing one block to N children encodes it once and every
// child's writer enqueues the same buffer. The cache is a small ring in
// encode order — pushers all work near the live edge, so an entry is
// found within a few steps of the newest and evicted shortly after its
// block period. Buffers are exactly one frame long and cycle between
// the ring, the writer queues and a free list no longer than the ring,
// so a node whose fan-out has settled allocates none.
func (n *Node) fanFrame(j int, seq int64) (*fanBuf, error) {
	n.fanMu.Lock()
	defer n.fanMu.Unlock()
	for i := 1; i <= fanCacheCap; i++ {
		s := &n.fanRing[(n.fanPos+fanCacheCap-i)%fanCacheCap]
		if s.fb == nil {
			break // the ring fills in order: nothing older exists
		}
		if s.j == j && s.seq == seq {
			s.fb.refs.Add(1)
			n.stats.fanShared.Add(1)
			return s.fb, nil
		}
	}
	size := protocol.BlockPushOverhead + n.cfg.Layout.BlockBytes
	if n.fanFree == nil {
		// This node's first encode: stock the free list with the ring's
		// worth of buffers cut from one slab, so filling the cache costs
		// three allocations, not two per block. A node that never serves
		// never pays for it.
		n.fanFree = make([]*fanBuf, fanCacheCap)
		fbs, slab := make([]fanBuf, fanCacheCap), make([]byte, fanCacheCap*size)
		for i := range fbs {
			fbs[i].buf = slab[i*size : i*size : (i+1)*size]
			n.fanFree[i] = &fbs[i]
		}
	}
	var fb *fanBuf
	if last := len(n.fanFree) - 1; last >= 0 {
		fb, n.fanFree = n.fanFree[last], n.fanFree[:last]
	} else {
		// Writer queues hold more frames than the cache has let go of.
		fb = &fanBuf{buf: make([]byte, 0, size)}
	}
	buf, err := protocol.AppendFrame(fb.buf[:0], protocol.Message{
		// To is -1: the frame is addressed to every subscribed child;
		// receivers identify the push by (SubStream, StartSeq) alone.
		Type: protocol.TypeBlockPush, From: n.cfg.ID, To: -1,
		SubStream: int16(j), StartSeq: seq, Payload: n.payload,
	})
	if err != nil {
		n.fanRecycleLocked(fb)
		return nil, err
	}
	fb.buf = buf
	fb.refs.Store(2) // the slot's and the caller's
	slot := &n.fanRing[n.fanPos]
	if old := slot.fb; old != nil && old.refs.Add(-1) == 0 {
		n.fanRecycleLocked(old)
	}
	*slot = fanSlot{j: j, seq: seq, fb: fb}
	n.fanPos = (n.fanPos + 1) % fanCacheCap
	n.stats.fanEncodes.Add(1)
	return fb, nil
}

// fanUnref drops one reference to fb; the last holder recycles it.
func (n *Node) fanUnref(fb *fanBuf) {
	if fb.refs.Add(-1) != 0 {
		return
	}
	n.fanMu.Lock()
	n.fanRecycleLocked(fb)
	n.fanMu.Unlock()
}

// fanRecycleLocked puts an unreferenced buffer on the free list (fanMu
// held). The list is bounded by the cache size; past that the buffer is
// left to the collector — a burst of queue drops, not the steady state.
func (n *Node) fanRecycleLocked(fb *fanBuf) {
	if len(n.fanFree) < fanCacheCap {
		n.fanFree = append(n.fanFree, fb)
	}
}
