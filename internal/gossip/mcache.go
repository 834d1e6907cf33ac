// Package gossip implements Coolstreaming's membership layer: the
// per-node membership cache (mCache) holding a partial view of the
// overlay, the bootstrap node that seeds new joiners, and the cache
// replacement policies.
//
// The paper attributes the long media-ready times under flash crowds
// (Fig. 7) to the *random-replacement* mCache policy: during bursts the
// cache fills with newly joined peers that cannot yet provide stable
// streams, and suggests a replacement algorithm that converges to
// stable peers instead (§V-C). Both policies are implemented here; the
// ablation experiment E12 compares them.
package gossip

import (
	"sort"

	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// Entry is one mCache record: a partial, possibly stale view of
// another peer.
type Entry struct {
	ID           int
	Class        netmodel.UserClass
	JoinedAt     sim.Time
	LastSeen     sim.Time
	PartnerCount int
}

// View is the read-only window a Policy gets onto a full cache: the
// entry count and each entry's join time, in slot order.
type View interface {
	Len() int
	JoinedAt(i int) sim.Time
}

// Policy selects which entry a full cache evicts.
type Policy interface {
	// Evict returns the slot index in v to replace when inserting
	// incoming at time now. v is non-empty.
	Evict(v View, incoming Entry, now sim.Time, r *xrand.RNG) int
	// Name identifies the policy in logs and experiment tables.
	Name() string
}

// RandomReplace is the paper's deployed policy: replace a uniformly
// random entry.
type RandomReplace struct{}

// Evict implements Policy.
func (RandomReplace) Evict(v View, _ Entry, _ sim.Time, r *xrand.RNG) int {
	return r.Intn(v.Len())
}

// Name implements Policy.
func (RandomReplace) Name() string { return "random" }

// StabilityAware is the paper's suggested improvement: prefer to evict
// the youngest (least proven) entry so the cache converges towards
// long-lived, stable peers.
type StabilityAware struct{}

// Evict implements Policy.
func (StabilityAware) Evict(v View, _ Entry, _ sim.Time, _ *xrand.RNG) int {
	youngest, at := 0, v.JoinedAt(0)
	for i := 1; i < v.Len(); i++ {
		if t := v.JoinedAt(i); t > at {
			youngest, at = i, t
		}
	}
	return youngest
}

// Name implements Policy.
func (StabilityAware) Name() string { return "stability" }

// MaxCapacity bounds an mCache's capacity: Sample keeps its candidate
// slot indices in a stack array of this many uint8 positions, so a
// larger cache could not be sampled without narrowing an index.
const MaxCapacity = 255

// MaxPartnerCount is the largest Entry.PartnerCount a Slot holds.
const MaxPartnerCount = 1<<15 - 1

// Slot is the packed storage form of one Entry: 24 bytes against the
// Entry's 40, lossless for every value Insert accepts. Its fields are
// private; the type is exported so an owner of many caches can carve
// their fixed-length slot runs out of one slab (see MCache.Init).
type Slot struct {
	joinedAt     int64
	lastSeen     int64
	id           int32
	partnerCount int16
	class        uint8 // netmodel.UserClass is a uint8: never narrowed
}

// pack narrows e into a Slot. An ID outside int32 or a partner count
// outside int16 cannot be stored losslessly and is a programming
// error, like a capacity out of range.
func pack(e Entry) Slot {
	if e.ID != int(int32(e.ID)) {
		panic("gossip: mCache entry ID outside int32")
	}
	if e.PartnerCount != int(int16(e.PartnerCount)) {
		panic("gossip: mCache entry PartnerCount outside int16")
	}
	return Slot{
		joinedAt:     int64(e.JoinedAt),
		lastSeen:     int64(e.LastSeen),
		id:           int32(e.ID),
		partnerCount: int16(e.PartnerCount),
		class:        uint8(e.Class),
	}
}

func (s *Slot) entry() Entry {
	return Entry{
		ID:           int(s.id),
		Class:        netmodel.UserClass(s.class),
		JoinedAt:     sim.Time(s.joinedAt),
		LastSeen:     sim.Time(s.lastSeen),
		PartnerCount: int(s.partnerCount),
	}
}

// MCache is a bounded partial view of the overlay. Entries live in a
// fixed run of packed slots (len = entries held, cap = capacity) in
// arrival order: an insert appends, a refresh or an eviction overwrites
// in place, a removal moves the last slot into the hole. Lookups scan
// the run: at the paper's 60 entries that is 1.4 kB of contiguous,
// pointer-free memory.
type MCache struct {
	slots  []Slot
	policy Policy
	rng    xrand.RNG
}

// NewMCache creates a cache with the given capacity and replacement
// policy, drawing from a copy of rng's stream. It panics on a capacity
// outside [1, MaxCapacity] or nil inputs, which are programming errors.
func NewMCache(capacity int, policy Policy, rng *xrand.RNG) *MCache {
	if capacity <= 0 || capacity > MaxCapacity {
		panic("gossip: mCache capacity outside [1, MaxCapacity]")
	}
	if rng == nil {
		panic("gossip: nil mCache rng")
	}
	c := new(MCache)
	c.Init(make([]Slot, capacity), policy, *rng)
	return c
}

// Init makes c an empty cache whose capacity is len(backing), stored in
// backing, with the given policy and RNG stream — NewMCache for callers
// that carve headers and slot runs from their own slabs. It panics
// where NewMCache would.
func (c *MCache) Init(backing []Slot, policy Policy, stream xrand.RNG) {
	if len(backing) == 0 || len(backing) > MaxCapacity {
		panic("gossip: mCache capacity outside [1, MaxCapacity]")
	}
	if policy == nil {
		panic("gossip: nil mCache policy")
	}
	*c = MCache{slots: backing[:0:len(backing)], policy: policy, rng: stream}
}

// Reset empties the cache in place and replaces its RNG stream with
// the given state, keeping its slot run — the recycling path for node
// shells: a Reset cache behaves exactly like a NewMCache built with an
// RNG in that state.
func (c *MCache) Reset(stream xrand.RNG) {
	c.rng = stream
	c.slots = c.slots[:0]
}

// Len returns the number of cached entries.
func (c *MCache) Len() int { return len(c.slots) }

// Capacity returns the maximum number of entries.
func (c *MCache) Capacity() int { return cap(c.slots) }

// JoinedAt returns the join time of the entry in slot i; with Len it
// makes the cache the View its policy evicts from.
func (c *MCache) JoinedAt(i int) sim.Time { return sim.Time(c.slots[i].joinedAt) }

// find returns the slot holding peer id, or -1.
func (c *MCache) find(id int) int {
	for i := range c.slots {
		if int(c.slots[i].id) == id {
			return i
		}
	}
	return -1
}

// Insert adds or refreshes an entry. A known peer's record is updated
// in place; a new peer either fills spare capacity or displaces the
// policy's eviction choice. It panics on an entry a Slot cannot hold
// (see pack).
func (c *MCache) Insert(e Entry, now sim.Time) {
	e.LastSeen = now
	s := pack(e)
	if i := c.find(e.ID); i >= 0 {
		c.slots[i] = s
		return
	}
	if len(c.slots) < cap(c.slots) {
		c.slots = append(c.slots, s)
		return
	}
	c.slots[c.policy.Evict(c, e, now, &c.rng)] = s
}

// Remove drops a peer from the cache if present (e.g. after a failed
// connection attempt or an observed departure).
func (c *MCache) Remove(id int) {
	i := c.find(id)
	if i < 0 {
		return
	}
	last := len(c.slots) - 1
	c.slots[i] = c.slots[last]
	c.slots = c.slots[:last]
}

// Contains reports whether the peer is cached.
func (c *MCache) Contains(id int) bool { return c.find(id) >= 0 }

// Sample appends to dst up to n distinct entries chosen uniformly at
// random and returns the extended slice. The peer `self` is always
// excluded (pass a negative ID to exclude nothing), as is every ID in
// excludeIDs, which must be sorted ascending — callers typically pass
// their partner-ID slice, so the hot gossip/recruit paths build no
// per-call exclusion set.
//
// The cache keeps no scratch: candidate indices live on the stack and
// the entries are unpacked straight into dst, so a dst with room for n
// more entries makes the call allocation-free and the result is the
// caller's to keep.
func (c *MCache) Sample(dst []Entry, n int, self int, excludeIDs []int) []Entry {
	if n <= 0 {
		return dst
	}
	var cand [MaxCapacity]uint8
	m := 0
	for i := range c.slots {
		id := int(c.slots[i].id)
		if id == self || containsSorted(excludeIDs, id) {
			continue
		}
		cand[m] = uint8(i)
		m++
	}
	c.rng.Shuffle(m, func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	if n > m {
		n = m
	}
	for _, i := range cand[:n] {
		dst = append(dst, c.slots[i].entry())
	}
	return dst
}

// containsSorted reports whether id occurs in the ascending slice ids.
func containsSorted(ids []int, id int) bool {
	i := sort.SearchInts(ids, id)
	return i < len(ids) && ids[i] == id
}

// Snapshot returns a copy of all entries sorted by peer ID (for
// deterministic iteration in metrics and tests).
func (c *MCache) Snapshot() []Entry {
	out := make([]Entry, len(c.slots))
	for i := range c.slots {
		out[i] = c.slots[i].entry()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
