package gossip

import (
	"testing"

	"coolstream/internal/netmodel"
	"coolstream/internal/xrand"
)

func TestBootstrapJoinLeave(t *testing.T) {
	b := NewBootstrap(xrand.New(1))
	b.Join(entry(1), 0)
	b.Join(entry(2), 0)
	if b.ActiveCount() != 2 {
		t.Fatalf("active = %d", b.ActiveCount())
	}
	b.Leave(1)
	if b.ActiveCount() != 1 {
		t.Fatalf("active after leave = %d", b.ActiveCount())
	}
	if _, ok := b.active[1]; ok {
		t.Fatal("departed peer still known")
	}
	if _, ok := b.active[2]; !ok {
		t.Fatal("active peer unknown")
	}
}

func TestBootstrapCandidatesExcludeRequester(t *testing.T) {
	b := NewBootstrap(xrand.New(2))
	for i := 0; i < 10; i++ {
		b.Join(entry(i), 0)
	}
	cands := b.Candidates(3, 20)
	if len(cands) != 9 {
		t.Fatalf("candidates = %d, want 9", len(cands))
	}
	for _, e := range cands {
		if e.ID == 3 {
			t.Fatal("requester included in candidates")
		}
	}
}

func TestBootstrapCandidatesLimit(t *testing.T) {
	b := NewBootstrap(xrand.New(3))
	for i := 0; i < 50; i++ {
		b.Join(entry(i), 0)
	}
	if got := len(b.Candidates(0, 5)); got != 5 {
		t.Fatalf("limited candidates = %d", got)
	}
	if b.Candidates(0, 0) != nil {
		t.Fatal("zero-limit candidates not nil")
	}
}

func TestBootstrapServersAlwaysFirst(t *testing.T) {
	b := NewBootstrap(xrand.New(4))
	for i := 0; i < 30; i++ {
		b.Join(entry(i), 0)
	}
	srv := Entry{ID: 1000, Class: netmodel.Direct}
	b.Join(srv, 0)
	b.RegisterServer(1000)
	for trial := 0; trial < 10; trial++ {
		cands := b.Candidates(5, 4)
		if len(cands) == 0 || cands[0].ID != 1000 {
			t.Fatalf("server not first in candidates: %+v", cands)
		}
	}
	// The requester being the server itself is excluded.
	cands := b.Candidates(1000, 4)
	for _, e := range cands {
		if e.ID == 1000 {
			t.Fatal("server returned to itself")
		}
	}
}

func TestBootstrapSampleVaries(t *testing.T) {
	b := NewBootstrap(xrand.New(5))
	for i := 0; i < 100; i++ {
		b.Join(entry(i), 0)
	}
	// Candidates returns bootstrap-owned scratch; copy before the next call.
	first := append([]Entry(nil), b.Candidates(-1, 5)...)
	varied := false
	for trial := 0; trial < 10 && !varied; trial++ {
		next := b.Candidates(-1, 5)
		for i := range next {
			if next[i].ID != first[i].ID {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("bootstrap always returns the identical sample")
	}
}

func TestBootstrapUpdatePartnerCount(t *testing.T) {
	b := NewBootstrap(xrand.New(6))
	b.Join(entry(1), 0)
	b.UpdatePartnerCount(1, 7)
	if got := b.active[1].PartnerCount; got != 7 {
		t.Fatalf("partner count = %d", got)
	}
	b.UpdatePartnerCount(99, 3) // unknown peer: no-op
}

func TestBootstrapClassCounts(t *testing.T) {
	b := NewBootstrap(xrand.New(7))
	b.Join(Entry{ID: 1, Class: netmodel.Direct}, 0)
	b.Join(Entry{ID: 2, Class: netmodel.NAT}, 0)
	b.Join(Entry{ID: 3, Class: netmodel.NAT}, 0)
	counts := b.ClassCounts()
	if counts[netmodel.Direct] != 1 || counts[netmodel.NAT] != 2 {
		t.Fatalf("class counts %v", counts)
	}
}
