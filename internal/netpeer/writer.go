package netpeer

import (
	"errors"
	"sync"
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
	// fanCacheCap bounds the shared fan-out frame cache (see fanFrame).
	fanCacheCap = 128
)

var (
	errSlowPartner = errors.New("netpeer: slow partner: outbound queue overflow")
	errConnClosed  = errors.New("netpeer: connection closed")
)

// outFrame is one encoded frame awaiting flush.
type outFrame struct {
	buf []byte
	// bp is the pool box to return after flushing; nil for shared
	// fan-out buffers, which are immutable and never recycled.
	bp *[]byte
}

// encPool recycles per-frame encode buffers across all connections.
var encPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

func (f *outFrame) release() {
	if f.bp != nil {
		*f.bp = f.buf[:0]
		encPool.Put(f.bp)
		f.bp = nil
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

// enqueueShared queues an immutable pre-encoded frame shared across
// partners (the fan-out block path).
func (cn *conn) enqueueShared(buf []byte) error {
	return cn.enqueue(outFrame{buf: buf}, protocol.TypeBlockPush)
}

func (cn *conn) enqueue(f outFrame, typ protocol.MsgType) error {
	size := len(f.buf)
	cn.qmu.Lock()
	if cn.qErr != nil {
		err := cn.qErr
		cn.qmu.Unlock()
		f.release()
		return err
	}
	if cn.qBytes+size > cn.n.cfg.QueueBytes {
		cn.qErr = errSlowPartner
		cn.qcond.Broadcast()
		cn.qmu.Unlock()
		f.release()
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
		cn.q[i].release()
	}
	cn.q = nil
	cn.qBytes = 0
}

func (cn *conn) writerLoop() {
	n := cn.n
	defer n.wg.Done()
	flushDelay := n.cfg.FlushDelay
	flush := make([]byte, 0, defaultFlushBytes)
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
			f.release()
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

// fanKey identifies one block for the shared fan-out encoder.
type fanKey struct {
	j   int
	seq int64
}

// fanFrame returns the shared encoded BlockPush frame for block (j,
// seq): a source (or relay) pushing one block to N children encodes it
// once and every child's writer enqueues the same immutable buffer.
// The cache is a small ring — pushers all work near the live edge, so
// entries are reused within a block period and evicted shortly after.
func (n *Node) fanFrame(j int, seq int64) ([]byte, error) {
	key := fanKey{j: j, seq: seq}
	n.fanMu.Lock()
	if buf, ok := n.fanCache[key]; ok {
		n.fanMu.Unlock()
		n.stats.fanShared.Add(1)
		return buf, nil
	}
	buf, err := protocol.AppendFrame(nil, protocol.Message{
		// To is -1: the frame is addressed to every subscribed child;
		// receivers identify the push by (SubStream, StartSeq) alone.
		Type: protocol.TypeBlockPush, From: n.cfg.ID, To: -1,
		SubStream: int16(j), StartSeq: seq, Payload: n.payload,
	})
	if err != nil {
		n.fanMu.Unlock()
		return nil, err
	}
	if n.fanCache == nil {
		n.fanCache = make(map[fanKey][]byte, fanCacheCap)
	}
	if len(n.fanOrder) < fanCacheCap {
		n.fanOrder = append(n.fanOrder, key)
	} else {
		delete(n.fanCache, n.fanOrder[n.fanPos])
		n.fanOrder[n.fanPos] = key
		n.fanPos = (n.fanPos + 1) % fanCacheCap
	}
	n.fanCache[key] = buf
	n.fanMu.Unlock()
	n.stats.fanEncodes.Add(1)
	return buf, nil
}
