package gossip

import (
	"sort"

	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// Bootstrap is the boot-strap node of §III-B: it tracks currently
// active peers (from join/leave notifications) and hands newcomers a
// random partial list. Like the deployed system it has global
// membership knowledge but gives out only small random samples, so the
// overlay is still built by gossip.
type Bootstrap struct {
	rng    *xrand.RNG
	active map[int]Entry
	// ServerIDs are the dedicated-server peers, always included in
	// replies so every newcomer can reach the server tier even when the
	// random sample is unlucky. The paper's deployment seeds clients
	// with server addresses the same way.
	serverIDs []int
	// sortedIDs mirrors the non-server keys of active in ascending
	// order, maintained incrementally on join/leave so Candidates does
	// not rebuild and re-sort the full membership per request — at the
	// paper's 40k evening peak that rebuild dominated every join.
	sortedIDs []int
	// idScratch/outScratch are reused across Candidates calls so the
	// join hot path allocates nothing.
	idScratch  []int
	outScratch []Entry
}

// NewBootstrap creates an empty bootstrap node.
func NewBootstrap(rng *xrand.RNG) *Bootstrap {
	if rng == nil {
		panic("gossip: nil rng")
	}
	return &Bootstrap{rng: rng, active: make(map[int]Entry)}
}

// RegisterServer marks a peer ID as a dedicated server. The peer is
// pulled out of the random-sample pool: servers are handed out
// unconditionally instead.
func (b *Bootstrap) RegisterServer(id int) {
	b.serverIDs = append(b.serverIDs, id)
	sort.Ints(b.serverIDs)
	b.sortedRemove(id)
}

// Join records a newly active peer.
func (b *Bootstrap) Join(e Entry, now sim.Time) {
	e.LastSeen = now
	if _, known := b.active[e.ID]; !known && !b.isServer(e.ID) {
		b.sortedInsert(e.ID)
	}
	b.active[e.ID] = e
}

// Leave removes a departed peer.
func (b *Bootstrap) Leave(id int) {
	if _, known := b.active[id]; known {
		delete(b.active, id)
		if !b.isServer(id) {
			b.sortedRemove(id)
		}
	}
}

func (b *Bootstrap) isServer(id int) bool {
	i := sort.SearchInts(b.serverIDs, id)
	return i < len(b.serverIDs) && b.serverIDs[i] == id
}

func (b *Bootstrap) sortedInsert(id int) {
	i := sort.SearchInts(b.sortedIDs, id)
	if i < len(b.sortedIDs) && b.sortedIDs[i] == id {
		return
	}
	b.sortedIDs = append(b.sortedIDs, 0)
	copy(b.sortedIDs[i+1:], b.sortedIDs[i:])
	b.sortedIDs[i] = id
}

func (b *Bootstrap) sortedRemove(id int) {
	i := sort.SearchInts(b.sortedIDs, id)
	if i < len(b.sortedIDs) && b.sortedIDs[i] == id {
		b.sortedIDs = append(b.sortedIDs[:i], b.sortedIDs[i+1:]...)
	}
}

// ActiveCount returns the number of known-active peers.
func (b *Bootstrap) ActiveCount() int { return len(b.active) }

// Candidates returns up to n entries for a joining peer: every
// dedicated server first, then a uniform random sample of other active
// peers (excluding the requester).
//
// The candidate pool walks the incrementally maintained sorted ID
// mirror instead of collecting and sorting the membership map per call;
// the draw sequence (one Shuffle over the non-server, non-requester
// IDs in ascending order) is bit-identical to the rebuild-and-sort
// implementation. The returned slice is scratch owned by the
// bootstrap: it is valid only until the next Candidates call.
func (b *Bootstrap) Candidates(requester, n int) []Entry {
	if n <= 0 {
		return nil
	}
	out := b.outScratch[:0]
	for _, id := range b.serverIDs {
		if id == requester {
			continue
		}
		if e, ok := b.active[id]; ok && len(out) < n {
			out = append(out, e)
		}
	}
	ids := b.idScratch[:0]
	for _, id := range b.sortedIDs {
		if id != requester {
			ids = append(ids, id)
		}
	}
	b.idScratch = ids
	b.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		if len(out) >= n {
			break
		}
		out = append(out, b.active[id])
	}
	b.outScratch = out
	return out
}

// UpdatePartnerCount refreshes the advertised partner count of a peer,
// used by stability-aware sampling.
func (b *Bootstrap) UpdatePartnerCount(id, count int) {
	if e, ok := b.active[id]; ok {
		e.PartnerCount = count
		b.active[id] = e
	}
}

// ClassCounts tallies active peers by class; used in experiments.
func (b *Bootstrap) ClassCounts() [netmodel.NumClasses]int {
	var counts [netmodel.NumClasses]int
	for _, e := range b.active {
		counts[e.Class]++
	}
	return counts
}
