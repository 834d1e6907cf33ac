// Package microsim is a block-granular Coolstreaming data plane for
// small populations: every block is an individual scheduled delivery
// through a per-parent transmission queue, received into the real
// synchronization/cache buffers of internal/buffer, with buffer maps
// exchanged through the real wire codec of internal/protocol.
//
// Its purpose is cross-validation (experiment E15): the large-scale
// World in internal/peer abstracts transfers as fluid trajectories;
// microsim replays small scenarios at full block fidelity so the two
// can be compared — media-ready times, catch-up completion, and
// continuity must agree within block-quantisation error. It also
// serves as the reference implementation of the §III-C buffering
// pipeline, since the fluid engine cannot exercise SyncBuffer's
// combination process.
package microsim

import (
	"fmt"
	"sort"

	"coolstream/internal/buffer"
	"coolstream/internal/protocol"
	"coolstream/internal/sim"
)

// Node is one block-level peer.
type Node struct {
	ID int
	// UploadBps bounds the node's outgoing transmission rate.
	UploadBps float64

	syncBuf  *buffer.SyncBuffer
	cacheBuf *buffer.CacheBuffer
	// parents[j] is the node serving sub-stream j (-1 = none).
	parents []int
	// children[j] lists subscribers of sub-stream j.
	children [][]int

	// txBusyUntil serialises the node's outgoing transmissions: the
	// access link sends one block at a time at UploadBps.
	txBusyUntil sim.Time

	// startSeq is the per-sub-stream sequence the node joined at.
	startSeq int64
	// readyAt is when the startup buffer filled (-1 before that).
	readyAt sim.Time
	// readyThreshold is the per-sub-stream block count to buffer
	// before playback.
	readyThreshold int64

	// delivered[j] is the next sequence to transmit per (child,
	// sub-stream); key is child ID.
	nextSend []map[int]int64

	// blocksOnTime / blocksTotal account the continuity index against
	// per-block deadlines once playback started.
	blocksOnTime int64
	blocksTotal  int64

	// bmLog counts buffer-map exchanges round-tripped through the wire
	// codec (a fidelity check that the codec path is really used).
	bmExchanges int
}

// ReadyAt returns the media-ready time, or -1.
func (n *Node) ReadyAt() sim.Time { return n.readyAt }

// Continuity returns on-time blocks over total due blocks (1 when
// nothing was due yet).
func (n *Node) Continuity() float64 {
	if n.blocksTotal == 0 {
		return 1
	}
	return float64(n.blocksOnTime) / float64(n.blocksTotal)
}

// BMExchanges returns how many codec-verified BM exchanges this node
// performed.
func (n *Node) BMExchanges() int { return n.bmExchanges }

// Latest returns the latest received sequence on sub-stream j.
func (n *Node) Latest(j int) int64 { return n.syncBuf.Latest(j) }

// Combined returns the combined prefix (global blocks).
func (n *Node) Combined() int64 { return n.syncBuf.Combined() }

// System is the block-level simulation: a source emitting blocks at
// the stream rate and a set of nodes with static sub-stream
// subscriptions.
type System struct {
	Layout buffer.Layout
	Engine *sim.Engine
	// BufferBlocks is the cache window per node.
	BufferBlocks int64

	nodes map[int]*Node
	ids   []int

	// source state: the source holds every emitted block.
	sourceLatest []int64

	// BMPeriod drives periodic codec-round-tripped BM exchanges.
	BMPeriod sim.Time
	// bmWire and bmMsg are the encode buffer and decode target every
	// BM round-trip reuses (the engine is single-threaded).
	bmWire []byte
	bmMsg  protocol.Message
}

// SourceID is the implicit source node's ID.
const SourceID = -1

// NewSystem creates an empty block-level system on the engine. The
// source begins emitting block 0 of every sub-stream at time zero.
func NewSystem(layout buffer.Layout, engine *sim.Engine, bufferBlocks int64) (*System, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if engine == nil {
		return nil, fmt.Errorf("microsim: nil engine")
	}
	if bufferBlocks <= 0 {
		return nil, fmt.Errorf("microsim: buffer %d blocks", bufferBlocks)
	}
	s := &System{
		Layout:       layout,
		Engine:       engine,
		BufferBlocks: bufferBlocks,
		nodes:        make(map[int]*Node),
		sourceLatest: make([]int64, layout.K),
		BMPeriod:     5 * sim.Second,
	}
	for j := range s.sourceLatest {
		s.sourceLatest[j] = -1
	}
	s.scheduleEmission()
	return s, nil
}

// scheduleEmission emits global blocks at the stream rate forever
// (one engine event per block; microsim is for small scenarios).
func (s *System) scheduleEmission() {
	var emit func(g int64)
	emit = func(g int64) {
		j := s.Layout.SubStream(g)
		seq := s.Layout.Seq(g)
		s.sourceLatest[j] = seq
		// Push to direct children of the source.
		for _, id := range s.ids {
			n := s.nodes[id]
			if n.parents[j] == SourceID {
				s.transmit(nil, n, j, seq)
			}
		}
		s.Engine.Schedule(s.Layout.TimeOfGlobal(float64(g+1)), func() { emit(g + 1) })
	}
	s.Engine.Schedule(0, func() { emit(0) })
}

// createNode builds and registers a node with no data feed wired up;
// every lane starts marked pullParent (no push source).
func (s *System) createNode(id int, uploadBps float64, startSeq, readyThreshold int64) (*Node, error) {
	if _, dup := s.nodes[id]; dup || id == SourceID {
		return nil, fmt.Errorf("microsim: bad node id %d", id)
	}
	sb, err := buffer.NewSyncBuffer(s.Layout, startSeq*int64(s.Layout.K))
	if err != nil {
		return nil, err
	}
	cb, err := buffer.NewCacheBuffer(s.BufferBlocks*int64(s.Layout.K), startSeq*int64(s.Layout.K))
	if err != nil {
		return nil, err
	}
	n := &Node{
		ID:             id,
		UploadBps:      uploadBps,
		syncBuf:        sb,
		cacheBuf:       cb,
		parents:        make([]int, s.Layout.K),
		children:       make([][]int, s.Layout.K),
		startSeq:       startSeq,
		readyAt:        -1,
		readyThreshold: readyThreshold,
		nextSend:       make([]map[int]int64, s.Layout.K),
	}
	for j := range n.parents {
		n.parents[j] = pullParent
	}
	for j := range n.nextSend {
		n.nextSend[j] = make(map[int]int64)
	}
	s.nodes[id] = n
	s.ids = append(s.ids, id)
	sort.Ints(s.ids)
	s.scheduleBMExchange(n)
	return n, nil
}

// AddNode registers a push-mode node. parents[j] names the serving
// node per sub-stream (SourceID for the source). startSeq is the
// per-sub-stream join position; readyThreshold the startup buffer in
// blocks.
func (s *System) AddNode(id int, uploadBps float64, parents []int, startSeq, readyThreshold int64) (*Node, error) {
	if len(parents) != s.Layout.K {
		return nil, fmt.Errorf("microsim: %d parents for K=%d", len(parents), s.Layout.K)
	}
	for j, p := range parents {
		if p == SourceID {
			continue
		}
		if _, ok := s.nodes[p]; !ok {
			return nil, fmt.Errorf("microsim: node %d: unknown parent %d on sub-stream %d", id, p, j)
		}
	}
	n, err := s.createNode(id, uploadBps, startSeq, readyThreshold)
	if err != nil {
		return nil, err
	}
	copy(n.parents, parents)
	// Register with parents and backfill: the parent pushes everything
	// it already holds from startSeq on (the §IV-B "push out all
	// blocks of a sub-stream in need").
	for j, p := range parents {
		if p == SourceID {
			for seq := startSeq; seq <= s.sourceLatest[j]; seq++ {
				s.transmit(nil, n, j, seq)
			}
			continue
		}
		parent := s.nodes[p]
		parent.children[j] = append(parent.children[j], id)
		parent.nextSend[j][id] = startSeq
		s.drainBacklog(parent, n, j)
	}
	return n, nil
}

// scheduleBMExchange round-trips the node's buffer map through the
// wire codec periodically, verifying the exchange path end to end.
func (s *System) scheduleBMExchange(n *Node) {
	var tick func()
	tick = func() {
		bm := buffer.NewBufferMap(s.Layout.K)
		for j := 0; j < s.Layout.K; j++ {
			bm.Latest[j] = n.syncBuf.Latest(j)
			bm.Subscribed[j] = n.parents[j] != SourceID && n.parents[j] >= 0
		}
		msg := protocol.Message{Type: protocol.TypeBMExchange, From: int32(n.ID), To: 0, BM: bm}
		data, err := protocol.AppendMessage(s.bmWire[:0], msg)
		if err != nil {
			panic(fmt.Sprintf("microsim: bm encode: %v", err))
		}
		s.bmWire = data
		if err := protocol.DecodeMessage(data, &s.bmMsg); err != nil {
			panic(fmt.Sprintf("microsim: bm decode: %v", err))
		}
		for j, latest := range s.bmMsg.BM.Latest {
			if latest != bm.Latest[j] {
				panic("microsim: bm corrupted in flight")
			}
		}
		n.bmExchanges++
		s.Engine.After(s.BMPeriod, tick)
	}
	s.Engine.After(s.BMPeriod, tick)
}

// transmit queues the delivery of block (j, seq) from parent to child.
// A nil parent means the source, whose capacity is unbounded.
func (s *System) transmit(parent *Node, child *Node, j int, seq int64) {
	now := s.Engine.Now()
	var arrive sim.Time
	if parent == nil {
		arrive = now // source delivers at emission
	} else {
		txTime := sim.FromSeconds(8 * float64(s.Layout.BlockBytes) / parent.UploadBps)
		start := now
		if parent.txBusyUntil > start {
			start = parent.txBusyUntil
		}
		parent.txBusyUntil = start + txTime
		arrive = parent.txBusyUntil
	}
	s.Engine.Schedule(arrive, func() { s.receive(child, j, seq) })
}

// receive lands a block in the child's buffers, advances the
// combination process, detects media-ready, accounts deadlines, and
// forwards to the child's own children.
func (s *System) receive(n *Node, j int, seq int64) {
	combined, err := n.syncBuf.Receive(j, seq)
	if err != nil {
		panic(fmt.Sprintf("microsim: receive: %v", err))
	}
	if combined > 0 {
		n.cacheBuf.Append(combined)
	}
	now := s.Engine.Now()
	// Media-ready: every lane has buffered readyThreshold blocks past
	// the start position (combined prefix covers it).
	if n.readyAt < 0 {
		if n.syncBuf.Combined() >= (n.startSeq+n.readyThreshold)*int64(s.Layout.K) {
			n.readyAt = now
		}
	}
	// Deadline accounting: block (j, seq) is due at
	// readyAt + (seq - start)/subBlockRate.
	if n.readyAt >= 0 {
		due := n.readyAt + sim.FromSeconds(s.Layout.SeqToSeconds(float64(seq-n.startSeq)))
		n.blocksTotal++
		if now <= due {
			n.blocksOnTime++
		}
	}
	// Forward, in order, to children subscribed to this sub-stream.
	for _, c := range n.children[j] {
		s.drainBacklog(n, s.nodes[c], j)
	}
}

// drainBacklog sends, in order, every block the parent holds that the
// child is still missing on sub-stream j.
func (s *System) drainBacklog(parent, child *Node, j int) {
	for {
		next := parent.nextSend[j][child.ID]
		if next > parent.syncBuf.Latest(j) {
			return
		}
		parent.nextSend[j][child.ID] = next + 1
		s.transmit(parent, child, j, next)
	}
}

// Node returns a node by ID.
func (s *System) Node(id int) *Node { return s.nodes[id] }
