package tree

import (
	"testing"

	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

func newOverlay(t *testing.T) (*Overlay, *sim.Engine) {
	t.Helper()
	e := sim.NewEngine(sim.Second)
	o, err := NewOverlay(DefaultParams(), e, 1)
	if err != nil {
		t.Fatal(err)
	}
	return o, e
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{StreamRateBps: 0, RepairDelay: 1, BufferSeconds: 1, RootDegree: 1},
		{StreamRateBps: 1, RepairDelay: -1, BufferSeconds: 1, RootDegree: 1},
		{StreamRateBps: 1, RepairDelay: 1, BufferSeconds: -1, RootDegree: 1},
		{StreamRateBps: 1, RepairDelay: 1, BufferSeconds: 1, RootDegree: 0},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad params %d validated", i)
		}
	}
	if _, err := NewOverlay(DefaultParams(), nil, 1); err == nil {
		t.Fatal("nil engine accepted")
	}
}

func TestJoinAttaches(t *testing.T) {
	o, e := newOverlay(t)
	const rate = 768e3
	id := o.Join(2 * rate)
	if id != 1 {
		t.Fatalf("id = %d", id)
	}
	e.Run(10 * sim.Second)
	if !o.nodes[id].connected {
		t.Fatal("joiner has no path to the root")
	}
	if o.Continuity() < 0.999 {
		t.Fatalf("continuity %v for undisturbed peer", o.Continuity())
	}
}

func TestCapacityLimitedAttachment(t *testing.T) {
	p := DefaultParams()
	p.RootDegree = 1
	e := sim.NewEngine(sim.Second)
	o, _ := NewOverlay(p, e, 2)
	// First peer has zero upload: it attaches to the root (degree 1)
	// but accepts no children.
	a := o.Join(0)
	b := o.Join(0)
	e.Run(2 * sim.Second)
	if !o.nodes[a].connected {
		t.Fatal("first peer not connected")
	}
	if o.nodes[b].connected {
		t.Fatal("second peer connected despite no spare capacity")
	}
	if o.Rejections == 0 {
		t.Fatal("rejection not counted")
	}
	// Adding an uploader lets the orphan re-attach on repair cadence.
	o.Leave(a)
	o.Join(10 * p.StreamRateBps)
	e.Run(e.Now() + 30*sim.Second)
	if !o.nodes[b].connected {
		t.Fatal("orphan never repaired")
	}
}

func TestLeaveOrphansSubtree(t *testing.T) {
	o, e := newOverlay(t)
	const rate = 768e3
	// Build a chain: root → a → b by capacity shaping.
	p := DefaultParams()
	_ = p
	a := o.Join(1 * rate) // degree 1
	e.Run(sim.Second)
	b := o.Join(0) // must land under a (root full? RootDegree=64...)
	// With a roomy root, b may attach to the root; force the chain:
	nb := o.nodes[b]
	if nb.parent != a {
		// Detach and reattach under a manually for the structural test.
		parent := o.nodes[nb.parent]
		for i, c := range parent.children {
			if c == b {
				parent.children = append(parent.children[:i], parent.children[i+1:]...)
				break
			}
		}
		o.nodes[a].children = append(o.nodes[a].children, b)
		nb.parent = a
	}
	e.Run(e.Now() + sim.Second)
	o.Leave(a)
	if nb.parent != parentOrphaned {
		t.Fatal("child not orphaned by parent leave")
	}
	// The outage outlasts the playout buffer only if repair is slow;
	// with the default 5 s repair and 10 s buffer, continuity holds.
	e.Run(e.Now() + 30*sim.Second)
	if !nb.connected {
		t.Fatal("orphan not repaired")
	}
	if o.Repairs == 0 {
		t.Fatal("repair not counted")
	}
}

func TestChurnDegradesContinuity(t *testing.T) {
	// Heavy churn with slow repair must cost continuity.
	p := DefaultParams()
	p.RepairDelay = 20 * sim.Second
	p.BufferSeconds = 2
	e := sim.NewEngine(sim.Second)
	o, _ := NewOverlay(p, e, 3)
	r := xrand.New(4)
	const rate = 768e3
	var ids []int
	for i := 0; i < 50; i++ {
		ids = append(ids, o.Join(rate*(0.5+2*r.Float64())))
	}
	// Churn: every 10 s, one random peer leaves and a new one joins.
	for step := 0; step < 30; step++ {
		at := sim.Time(step+1) * 10 * sim.Second
		e.Schedule(at, func() {
			if len(ids) > 0 {
				victim := ids[r.Intn(len(ids))]
				o.Leave(victim)
			}
			ids = append(ids, o.Join(rate*(0.5+2*r.Float64())))
		})
	}
	e.Run(320 * sim.Second)
	ci := o.Continuity()
	if ci >= 0.995 {
		t.Fatalf("churned tree continuity %v suspiciously perfect", ci)
	}
	if ci < 0.3 {
		t.Fatalf("churned tree continuity %v implausibly bad", ci)
	}
}

func TestDepthsAndCounts(t *testing.T) {
	o, e := newOverlay(t)
	const rate = 768e3
	for i := 0; i < 10; i++ {
		o.Join(2 * rate)
	}
	e.Run(5 * sim.Second)
	if o.ActiveCount() != 10 {
		t.Fatalf("active %d", o.ActiveCount())
	}
	for _, id := range o.active {
		if id != 0 && !o.nodes[id].connected {
			t.Fatalf("peer %d has no path to the root", id)
		}
	}
	// Leave of unknown/duplicate IDs is safe.
	o.Leave(0)
	o.Leave(999)
	o.Leave(1)
	o.Leave(1)
}

func TestContinuityEmptyTree(t *testing.T) {
	o, _ := newOverlay(t)
	if o.Continuity() != 1 {
		t.Fatal("empty tree continuity != 1")
	}
}
