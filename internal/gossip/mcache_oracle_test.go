package gossip

// The map-backed mCache this package shipped before the flat slot run,
// kept verbatim as the differential oracle (mcache_diff_test.go drives
// both from one seed). The only edits are the type and constructor
// names, and JoinedAt, which with Len makes the oracle the read-only
// View the Policy interface now takes in place of the entry slice.

import (
	"sort"

	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// oracleMCache is a bounded partial view of the overlay.
type oracleMCache struct {
	capacity int
	policy   Policy
	rng      *xrand.RNG
	entries  []Entry
	index    map[int]int // peer ID → position in entries

	// candScratch and outScratch are reused across Sample calls so the
	// per-tick gossip step allocates nothing at steady state.
	candScratch []int
	outScratch  []Entry
}

// newOracleMCache creates a cache with the given capacity and replacement
// policy. It panics on non-positive capacity or nil inputs, which are
// programming errors.
func newOracleMCache(capacity int, policy Policy, rng *xrand.RNG) *oracleMCache {
	if capacity <= 0 {
		panic("gossip: non-positive mCache capacity")
	}
	if policy == nil || rng == nil {
		panic("gossip: nil policy or rng")
	}
	return &oracleMCache{
		capacity: capacity,
		policy:   policy,
		rng:      rng,
		index:    make(map[int]int),
	}
}

// Reset empties the cache in place and replaces its RNG stream with
// the given state, keeping every backing allocation (entry slice,
// index map buckets, scratch) — the recycling path for node shells:
// a Reset cache behaves exactly like a NewMCache built with an RNG in
// that state.
func (c *oracleMCache) Reset(stream xrand.RNG) {
	*c.rng = stream
	c.entries = c.entries[:0]
	for k := range c.index {
		delete(c.index, k)
	}
}

// Len returns the number of cached entries.
func (c *oracleMCache) Len() int { return len(c.entries) }

// Capacity returns the maximum number of entries.
func (c *oracleMCache) Capacity() int { return c.capacity }

// JoinedAt implements View.
func (c *oracleMCache) JoinedAt(i int) sim.Time { return c.entries[i].JoinedAt }

// Insert adds or refreshes an entry. A known peer's record is updated
// in place; a new peer either fills spare capacity or displaces the
// policy's eviction choice.
func (c *oracleMCache) Insert(e Entry, now sim.Time) {
	e.LastSeen = now
	if pos, ok := c.index[e.ID]; ok {
		c.entries[pos] = e
		return
	}
	if len(c.entries) < c.capacity {
		c.index[e.ID] = len(c.entries)
		c.entries = append(c.entries, e)
		return
	}
	victim := c.policy.Evict(c, e, now, c.rng)
	delete(c.index, c.entries[victim].ID)
	c.entries[victim] = e
	c.index[e.ID] = victim
}

// Remove drops a peer from the cache if present (e.g. after a failed
// connection attempt or an observed departure).
func (c *oracleMCache) Remove(id int) {
	pos, ok := c.index[id]
	if !ok {
		return
	}
	last := len(c.entries) - 1
	delete(c.index, id)
	if pos != last {
		c.entries[pos] = c.entries[last]
		c.index[c.entries[pos].ID] = pos
	}
	c.entries = c.entries[:last]
}

// Contains reports whether the peer is cached.
func (c *oracleMCache) Contains(id int) bool {
	_, ok := c.index[id]
	return ok
}

// Sample returns up to n distinct entries chosen uniformly at random.
// The peer `self` is always excluded (pass a negative ID to exclude
// nothing), as is every ID in excludeIDs, which must be sorted
// ascending — callers typically pass their partner-ID slice, so the
// hot gossip/recruit paths build no per-call exclusion set.
//
// The returned slice is scratch owned by the cache: it is valid only
// until the next Sample call and must not be retained.
func (c *oracleMCache) Sample(n int, self int, excludeIDs []int) []Entry {
	if n <= 0 {
		return nil
	}
	c.candScratch = c.candScratch[:0]
	for i := range c.entries {
		id := c.entries[i].ID
		if id == self || oracleContainsSorted(excludeIDs, id) {
			continue
		}
		c.candScratch = append(c.candScratch, i)
	}
	candidates := c.candScratch
	c.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if n > len(candidates) {
		n = len(candidates)
	}
	if n == 0 {
		return nil
	}
	c.outScratch = c.outScratch[:0]
	for i := 0; i < n; i++ {
		c.outScratch = append(c.outScratch, c.entries[candidates[i]])
	}
	return c.outScratch
}

// oracleContainsSorted reports whether id occurs in the ascending slice ids.
func oracleContainsSorted(ids []int, id int) bool {
	i := sort.SearchInts(ids, id)
	return i < len(ids) && ids[i] == id
}

// Snapshot returns a copy of all entries sorted by peer ID (for
// deterministic iteration in metrics and tests).
func (c *oracleMCache) Snapshot() []Entry {
	out := append([]Entry(nil), c.entries...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
