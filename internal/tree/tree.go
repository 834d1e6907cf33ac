// Package tree implements the comparison baseline the paper positions
// data-driven streaming against (§II): single-tree overlay multicast.
// Each peer receives the whole stream from exactly one parent; a
// departure orphans the entire subtree, which must re-attach before
// playback resumes. The ablation experiment E11 runs this baseline
// under the same churn as the Coolstreaming mesh and compares
// delivered continuity.
//
// The model is deliberately favourable to the tree: re-attachment is
// centrally coordinated (no gossip search), capacity-aware, and takes
// a fixed repair delay. Even so, subtree-wide disruption under churn
// is structural, which is the paper's argument.
package tree

import (
	"fmt"
	"sort"

	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// Params configures the tree baseline.
type Params struct {
	// StreamRateBps is the full stream rate R.
	StreamRateBps float64
	// RepairDelay is the time an orphaned peer needs to re-attach.
	RepairDelay sim.Time
	// BufferSeconds is the playout buffer that absorbs outages shorter
	// than itself.
	BufferSeconds float64
	// RootDegree is the source's fan-out capacity (children).
	RootDegree int
}

// DefaultParams mirrors the mesh experiments' setting.
func DefaultParams() Params {
	return Params{
		StreamRateBps: 768e3,
		RepairDelay:   5 * sim.Second,
		BufferSeconds: 10,
		RootDegree:    64,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.StreamRateBps <= 0 {
		return fmt.Errorf("tree: rate %v", p.StreamRateBps)
	}
	if p.RepairDelay < 0 {
		return fmt.Errorf("tree: repair delay %v", p.RepairDelay)
	}
	if p.BufferSeconds < 0 {
		return fmt.Errorf("tree: buffer %v", p.BufferSeconds)
	}
	if p.RootDegree < 1 {
		return fmt.Errorf("tree: root degree %d", p.RootDegree)
	}
	return nil
}

// node is one tree participant.
type node struct {
	id       int
	alive    bool
	parent   int // -1 for the root, -2 when orphaned
	children []int
	degree   int // max children this node's upload supports
	// connected tracks whether a path to the root exists.
	connected bool
	// slack is the playout buffer currently absorbing an outage, in
	// seconds of stream remaining.
	slack float64
	// repairAt is when a pending re-attach completes (0 = none).
	repairAt sim.Time
	// accounting
	lostSeconds  float64
	totalSeconds float64
}

const (
	parentRoot     = -1
	parentOrphaned = -2
)

// Overlay is the single-tree system.
type Overlay struct {
	P      Params
	Engine *sim.Engine
	rng    *xrand.RNG
	nodes  []*node
	active []int
	// Repairs counts completed re-attachments (churn cost metric).
	Repairs int
	// Rejections counts joins/repairs that found no spare capacity.
	Rejections int
}

// NewOverlay builds a tree overlay with its root (the source) in
// place, registering its tick on the engine.
func NewOverlay(p Params, engine *sim.Engine, seed uint64) (*Overlay, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if engine == nil {
		return nil, fmt.Errorf("tree: nil engine")
	}
	o := &Overlay{P: p, Engine: engine, rng: xrand.New(seed)}
	root := &node{id: 0, alive: true, parent: parentRoot, degree: p.RootDegree, connected: true}
	o.nodes = append(o.nodes, root)
	o.active = append(o.active, 0)
	engine.OnTick(o.tick)
	return o, nil
}

// Join adds a peer whose upload capacity supports floor(upload/R)
// children, attaching it to a random node with spare degree. It
// returns the new node ID, or -1 when the tree has no spare capacity
// (the join is rejected — trees, unlike meshes, have a hard fan-out
// limit).
func (o *Overlay) Join(uploadBps float64) int {
	id := len(o.nodes)
	n := &node{
		id:     id,
		alive:  true,
		parent: parentOrphaned,
		degree: int(uploadBps / o.P.StreamRateBps),
		slack:  o.P.BufferSeconds,
	}
	o.nodes = append(o.nodes, n)
	o.active = append(o.active, id)
	if !o.attach(n) {
		o.Rejections++
		// The peer stays, orphaned, and retries on repair cadence.
		n.repairAt = o.Engine.Now() + o.P.RepairDelay
		return id
	}
	return id
}

// attach connects n under a random spare-capacity node. Returns false
// when no host exists.
func (o *Overlay) attach(n *node) bool {
	var hosts []int
	for _, id := range o.active {
		h := o.nodes[id]
		if h.alive && h.connected && h.id != n.id && len(h.children) < h.degree {
			hosts = append(hosts, id)
		}
	}
	if len(hosts) == 0 {
		return false
	}
	host := o.nodes[hosts[o.rng.Intn(len(hosts))]]
	host.children = append(host.children, n.id)
	n.parent = host.id
	n.connected = true
	n.repairAt = 0
	return true
}

// Leave removes a peer; its whole subtree is orphaned and scheduled
// for repair — the structural weakness of single-tree multicast.
func (o *Overlay) Leave(id int) {
	if id <= 0 || id >= len(o.nodes) {
		return
	}
	n := o.nodes[id]
	if !n.alive {
		return
	}
	n.alive = false
	o.removeActive(id)
	if n.parent >= 0 {
		p := o.nodes[n.parent]
		for i, c := range p.children {
			if c == id {
				p.children = append(p.children[:i], p.children[i+1:]...)
				break
			}
		}
	}
	now := o.Engine.Now()
	// Orphan children; each child root re-attaches independently after
	// the repair delay (its own subtree stays connected *to it* and
	// suffers the same outage).
	for _, c := range n.children {
		child := o.nodes[c]
		child.parent = parentOrphaned
		child.repairAt = now + o.P.RepairDelay
	}
	n.children = nil
}

func (o *Overlay) removeActive(id int) {
	i := sort.SearchInts(o.active, id)
	if i < len(o.active) && o.active[i] == id {
		o.active = append(o.active[:i], o.active[i+1:]...)
	}
}

// tick propagates connectivity, completes repairs, and accounts
// delivered vs lost stream time.
func (o *Overlay) tick(prev, now sim.Time) {
	dt := (now - prev).Seconds()
	if dt <= 0 {
		return
	}
	// Complete due repairs (deterministic ID order).
	for _, id := range o.active {
		n := o.nodes[id]
		if n.alive && n.parent == parentOrphaned && n.repairAt > 0 && now >= n.repairAt {
			if o.attach(n) {
				o.Repairs++
			} else {
				o.Rejections++
				n.repairAt = now + o.P.RepairDelay
			}
		}
	}
	// Recompute connectivity from the root.
	for _, id := range o.active {
		o.nodes[id].connected = false
	}
	o.nodes[0].connected = true
	var walk func(id int)
	walk = func(id int) {
		for _, c := range o.nodes[id].children {
			child := o.nodes[c]
			if child.alive && !child.connected {
				child.connected = true
				walk(c)
			}
		}
	}
	walk(0)
	// Account stream delivery.
	for _, id := range o.active {
		n := o.nodes[id]
		if id == 0 || !n.alive {
			continue
		}
		n.totalSeconds += dt
		if n.connected {
			// Refill playout slack.
			n.slack += dt * 0.1 // slow refill: 10% overhead headroom
			if n.slack > o.P.BufferSeconds {
				n.slack = o.P.BufferSeconds
			}
			continue
		}
		// Outage: drain slack first, then lose stream time.
		if n.slack >= dt {
			n.slack -= dt
			continue
		}
		n.lostSeconds += dt - n.slack
		n.slack = 0
	}
}

// Continuity returns the aggregate delivered fraction across all peers
// (excluding the root): 1 - lost/total.
func (o *Overlay) Continuity() float64 {
	var lost, total float64
	for _, n := range o.nodes[1:] {
		lost += n.lostSeconds
		total += n.totalSeconds
	}
	if total == 0 {
		return 1
	}
	return 1 - lost/total
}

// ActiveCount returns the number of live peers (excluding the root).
func (o *Overlay) ActiveCount() int { return len(o.active) - 1 }
