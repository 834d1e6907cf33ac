package peer

import (
	"testing"

	"coolstream/internal/buffer"
	"coolstream/internal/gossip"
	"coolstream/internal/sim"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.Layout.K = 0 },
		func(p *Params) { p.BufferSeconds = 0 },
		func(p *Params) { p.Ts = 0 },
		func(p *Params) { p.Tp = -1 },
		func(p *Params) { p.Ta = 0 },
		func(p *Params) { p.MaxPartners = 0 },
		func(p *Params) { p.MinPartners = 0 },
		func(p *Params) { p.DesiredPartners = p.MaxPartners + 1 },
		func(p *Params) { p.BMPeriod = 0 },
		func(p *Params) { p.ReportPeriod = 0 },
		func(p *Params) { p.GossipPeriod = 0 },
		func(p *Params) { p.ReadySeconds = 0 },
		func(p *Params) { p.JoinTimeout = 0 },
		func(p *Params) { p.BootstrapCandidates = 0 },
		func(p *Params) { p.MCacheCapacity = 1 },
		func(p *Params) { p.MCacheCapacity = gossip.MaxCapacity + 1 },
		func(p *Params) { p.MaxPartners = gossip.MaxPartnerCount + 1 },
		func(p *Params) { p.MaxServerPartners = gossip.MaxPartnerCount + 1 },
		func(p *Params) { p.TraversalProb = 1.5 },
		func(p *Params) { p.Allocator = "alien" },
		func(p *Params) { p.ControlLossProb = -0.5 },
		func(p *Params) { p.ParentSelection = "alien" },
	}
	for i, mutate := range mutations {
		p := DefaultParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
	// The bounds themselves are legal: the largest cache and partner
	// caps the packed mCache slot can carry.
	p := DefaultParams()
	p.MCacheCapacity = gossip.MaxCapacity
	p.MaxPartners, p.MaxServerPartners = gossip.MaxPartnerCount, gossip.MaxPartnerCount
	if err := p.Validate(); err != nil {
		t.Errorf("bounds rejected: %v", err)
	}
}

func TestParamsDerivedBlocks(t *testing.T) {
	p := DefaultParams()
	// 120 s at 2 sub-blocks/s = 240 blocks.
	if got := p.BufferBlocks(); got != 240 {
		t.Fatalf("BufferBlocks = %d", got)
	}
	// 10 s at 2 sub-blocks/s = 20 blocks.
	if got := p.ReadyBlocks(); got != 20 {
		t.Fatalf("ReadyBlocks = %v", got)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		StateJoining: "joining", StateSubscribing: "subscribing",
		StateReady: "ready", StateDeparted: "departed", State(9): "unknown",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestParamsLayoutConsistency(t *testing.T) {
	p := DefaultParams()
	if p.Layout.K != 4 {
		t.Fatalf("default K = %d", p.Layout.K)
	}
	if p.Layout != (buffer.Layout{K: 4, RateBps: 768e3, BlockBytes: 12000}) {
		t.Fatalf("default layout %+v", p.Layout)
	}
	if p.Ta != 20*sim.Second {
		t.Fatalf("default Ta %v", p.Ta)
	}
}
