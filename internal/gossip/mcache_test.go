package gossip

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

func newTestCache(capacity int) *MCache {
	return NewMCache(capacity, RandomReplace{}, xrand.New(1))
}

func entry(id int) Entry {
	return Entry{ID: id, Class: netmodel.NAT, JoinedAt: sim.Time(id) * sim.Second}
}

func TestMCacheInsertAndLookup(t *testing.T) {
	c := newTestCache(4)
	for i := 0; i < 4; i++ {
		c.Insert(entry(i), 0)
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
	for i := 0; i < 4; i++ {
		if !c.Contains(i) {
			t.Fatalf("missing id %d", i)
		}
	}
}

func TestMCacheRefreshInPlace(t *testing.T) {
	c := newTestCache(2)
	c.Insert(entry(1), 0)
	c.Insert(entry(2), 0)
	e := entry(1)
	e.PartnerCount = 9
	c.Insert(e, 10*sim.Second)
	if c.Len() != 2 {
		t.Fatalf("refresh grew cache: %d", c.Len())
	}
	snap := c.Snapshot()
	if snap[0].ID != 1 || snap[0].PartnerCount != 9 || snap[0].LastSeen != 10*sim.Second {
		t.Fatalf("refresh lost updates: %+v", snap[0])
	}
}

func TestMCacheEvictionKeepsCapacity(t *testing.T) {
	c := newTestCache(8)
	for i := 0; i < 100; i++ {
		c.Insert(entry(i), 0)
		if c.Len() > 8 {
			t.Fatalf("cache exceeded capacity: %d", c.Len())
		}
	}
	if c.Len() != 8 {
		t.Fatalf("cache not full: %d", c.Len())
	}
}

func TestMCacheIndexConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		c := NewMCache(1+r.Intn(10), RandomReplace{}, xrand.New(seed^1))
		live := map[int]bool{}
		for op := 0; op < 300; op++ {
			id := r.Intn(30)
			if r.Bool(0.7) {
				c.Insert(entry(id), sim.Time(op))
				live[id] = true
			} else {
				c.Remove(id)
				delete(live, id)
			}
		}
		// Every snapshot entry must be findable via Contains and unique.
		snap := c.Snapshot()
		seen := map[int]bool{}
		for _, e := range snap {
			if seen[e.ID] || !c.Contains(e.ID) {
				return false
			}
			seen[e.ID] = true
		}
		return len(snap) == c.Len() && c.Len() <= c.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMCacheRemove(t *testing.T) {
	c := newTestCache(4)
	for i := 0; i < 4; i++ {
		c.Insert(entry(i), 0)
	}
	c.Remove(1)
	if c.Contains(1) || c.Len() != 3 {
		t.Fatal("remove failed")
	}
	c.Remove(1) // idempotent
	if c.Len() != 3 {
		t.Fatal("double remove changed cache")
	}
	// Remaining entries intact.
	for _, id := range []int{0, 2, 3} {
		if !c.Contains(id) {
			t.Fatalf("remove corrupted entry %d", id)
		}
	}
}

func TestMCacheSample(t *testing.T) {
	c := newTestCache(10)
	for i := 0; i < 10; i++ {
		c.Insert(entry(i), 0)
	}
	s := c.Sample(nil, 5, -1, nil)
	if len(s) != 5 {
		t.Fatalf("sample size %d", len(s))
	}
	seen := map[int]bool{}
	for _, e := range s {
		if seen[e.ID] {
			t.Fatal("sample contains duplicates")
		}
		seen[e.ID] = true
	}
	// Exclusion respected: self plus a sorted exclude slice.
	excl := []int{1, 2}
	s = c.Sample(s[:0], 10, 0, excl)
	if len(s) != 7 {
		t.Fatalf("excluded sample size %d, want 7", len(s))
	}
	for _, e := range s {
		if e.ID == 0 || e.ID == 1 || e.ID == 2 {
			t.Fatal("sample included excluded peer")
		}
	}
	if c.Sample(nil, 0, -1, nil) != nil {
		t.Fatal("zero sample not nil")
	}
	// Sample appends: the result is the caller's, and a second sample
	// extends dst without disturbing what the first put there.
	a := c.Sample(nil, 3, -1, nil)
	ids := []int{a[0].ID, a[1].ID, a[2].ID}
	b := c.Sample(a, 3, -1, nil)
	if len(b) != 6 {
		t.Fatalf("second sample size %d", len(b))
	}
	for i, id := range ids {
		if b[i].ID != id {
			t.Fatalf("second sample overwrote entry %d of the first", i)
		}
	}
}

// entryView presents a materialised entry slice as a Policy View.
type entryView []Entry

func (v entryView) Len() int                { return len(v) }
func (v entryView) JoinedAt(i int) sim.Time { return v[i].JoinedAt }

func TestStabilityAwareEvictsYoungest(t *testing.T) {
	entries := entryView{
		{ID: 1, JoinedAt: 100 * sim.Second},
		{ID: 2, JoinedAt: 500 * sim.Second}, // youngest
		{ID: 3, JoinedAt: 50 * sim.Second},
	}
	idx := (StabilityAware{}).Evict(entries, Entry{ID: 9}, 1000*sim.Second, nil)
	if idx != 1 {
		t.Fatalf("evicted index %d, want 1 (youngest)", idx)
	}
}

func TestStabilityAwareCacheConvergesToOldPeers(t *testing.T) {
	c := NewMCache(5, StabilityAware{}, xrand.New(3))
	// Five old, stable peers fill the cache.
	for i := 0; i < 5; i++ {
		c.Insert(Entry{ID: i, JoinedAt: sim.Time(i) * sim.Second}, 0)
	}
	// A flash crowd of young peers must not displace them.
	for i := 100; i < 200; i++ {
		c.Insert(Entry{ID: i, JoinedAt: sim.Hour}, sim.Hour)
	}
	old := 0
	for _, e := range c.Snapshot() {
		if e.ID < 5 {
			old++
		}
	}
	if old != 4 {
		// One slot churns (each young insert displaces the previous
		// young tenant), but the four seasoned entries must survive.
		t.Fatalf("stability cache kept %d old peers, want 4", old)
	}
}

func TestRandomReplaceCacheTurnsOverUnderFlashCrowd(t *testing.T) {
	c := NewMCache(5, RandomReplace{}, xrand.New(4))
	for i := 0; i < 5; i++ {
		c.Insert(Entry{ID: i, JoinedAt: 0}, 0)
	}
	for i := 100; i < 300; i++ {
		c.Insert(Entry{ID: i, JoinedAt: sim.Hour}, sim.Hour)
	}
	old := 0
	for _, e := range c.Snapshot() {
		if e.ID < 5 {
			old++
		}
	}
	if old > 1 {
		t.Fatalf("random cache kept %d old peers after 200 inserts; expected near-total turnover", old)
	}
}

func TestPolicyNames(t *testing.T) {
	if (RandomReplace{}).Name() != "random" || (StabilityAware{}).Name() != "stability" {
		t.Fatal("policy names wrong")
	}
}

func TestNewMCachePanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewMCache(0, RandomReplace{}, xrand.New(1)) },
		func() { NewMCache(5, nil, xrand.New(1)) },
		func() { NewMCache(5, RandomReplace{}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMaxCapacityCacheSamplesEverySlot(t *testing.T) {
	c := newTestCache(MaxCapacity)
	for i := 0; i < MaxCapacity+40; i++ {
		c.Insert(entry(i), 0)
	}
	if c.Len() != MaxCapacity || c.Capacity() != MaxCapacity {
		t.Fatalf("len %d cap %d", c.Len(), c.Capacity())
	}
	s := c.Sample(nil, MaxCapacity+1, -1, nil)
	if len(s) != MaxCapacity {
		t.Fatalf("sampled %d of %d", len(s), MaxCapacity)
	}
	seen := map[int]bool{}
	for _, e := range s {
		if seen[e.ID] || !c.Contains(e.ID) {
			t.Fatalf("sample entry %d duplicated or not cached", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestInsertRejectsUnpackableEntries: narrowing is never silent — an
// entry the 24-byte slot cannot hold losslessly panics, and the extreme
// values it can hold round-trip. Class needs no check: UserClass is a
// uint8, the slot's own width.
func TestInsertRejectsUnpackableEntries(t *testing.T) {
	for name, e := range map[string]Entry{
		"id above int32":            {ID: math.MaxInt32 + 1},
		"id below int32":            {ID: math.MinInt32 - 1},
		"partner count above int16": {ID: 1, PartnerCount: MaxPartnerCount + 1},
		"partner count below int16": {ID: 1, PartnerCount: math.MinInt16 - 1},
	} {
		func() {
			c := newTestCache(2)
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Insert did not panic", name)
				}
				if c.Len() != 0 {
					t.Errorf("%s: rejected entry was stored", name)
				}
			}()
			c.Insert(e, 0)
		}()
	}
	c := newTestCache(2)
	lo := Entry{ID: math.MinInt32, Class: 255, JoinedAt: math.MinInt64, PartnerCount: math.MinInt16}
	hi := Entry{ID: math.MaxInt32, Class: 0, JoinedAt: math.MaxInt64, PartnerCount: MaxPartnerCount}
	c.Insert(lo, math.MinInt64)
	c.Insert(hi, math.MaxInt64)
	lo.LastSeen, hi.LastSeen = math.MinInt64, math.MaxInt64
	if snap := c.Snapshot(); snap[0] != lo || snap[1] != hi {
		t.Fatalf("extreme entries did not round-trip: %+v", snap)
	}
}

// TestFullCacheFootprint pins the acceptance bound: a full Table I
// cache — header plus 60 packed slots — stays under 1,600 bytes.
func TestFullCacheFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Slot{}); got > 24 {
		t.Fatalf("slot is %d bytes, want ≤ 24", got)
	}
	if got := unsafe.Sizeof(MCache{}) + 60*unsafe.Sizeof(Slot{}); got > 1600 {
		t.Fatalf("full 60-entry cache is %d bytes, want ≤ 1600", got)
	}
}
