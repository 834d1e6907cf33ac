package gossip

import (
	"reflect"
	"sort"
	"testing"

	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// diffMCaches drives the flat MCache and the map-backed oracle through
// the operation sequence encoded in ops, both seeded from seed, and
// fails on the first step after which they differ in slot order,
// Snapshot, Contains/Sample results or the next draw of their RNG
// streams. Each operation consumes three bytes: opcode, peer ID, and an
// argument.
func diffMCaches(t *testing.T, capacity int, policy Policy, seed uint64, ops []byte) {
	t.Helper()
	c := NewMCache(capacity, policy, xrand.New(seed))
	o := newOracleMCache(capacity, policy, xrand.New(seed))
	const idSpace = 96 // above the Table I capacity, so full caches evict
	var got, want []Entry
	for step := 0; len(ops) >= 3; step++ {
		op, id, arg := ops[0], int(ops[1])%idSpace, int(ops[2])
		ops = ops[3:]
		now := sim.Time(step) * sim.Second
		switch op % 8 {
		case 0, 1, 2, 3:
			e := Entry{
				ID:           id,
				Class:        netmodel.UserClass(arg % 4),
				JoinedAt:     sim.Time(arg%16) * sim.Minute, // ties exercise the youngest-first scan order
				PartnerCount: arg % 9,
			}
			c.Insert(e, now)
			o.Insert(e, now)
		case 4:
			c.Remove(id)
			o.Remove(id)
		case 5:
			if c.Contains(id) != o.Contains(id) {
				t.Fatalf("step %d: Contains(%d) = %v, oracle %v", step, id, c.Contains(id), o.Contains(id))
			}
		case 6:
			excl := []int{arg % idSpace, (arg * 7) % idSpace, (arg * 13) % idSpace}
			sort.Ints(excl)
			got = c.Sample(got[:0], arg%(capacity+2), id-1, excl)
			want = append(want[:0], o.Sample(arg%(capacity+2), id-1, excl)...)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("step %d: Sample = %+v, oracle %+v", step, got, want)
			}
		case 7:
			if arg%8 == 0 { // rare: a reset throws the built-up state away
				stream := *xrand.New(seed ^ uint64(step))
				c.Reset(stream)
				o.Reset(stream)
			}
		}
		if c.Len() != o.Len() {
			t.Fatalf("step %d: Len = %d, oracle %d", step, c.Len(), o.Len())
		}
		for i := range c.slots {
			if c.slots[i].entry() != o.entries[i] {
				t.Fatalf("step %d: slot %d = %+v, oracle %+v", step, i, c.slots[i].entry(), o.entries[i])
			}
		}
		if cs, os := c.Snapshot(), o.Snapshot(); len(cs) != len(os) || (len(cs) > 0 && !reflect.DeepEqual(cs, os)) {
			t.Fatalf("step %d: Snapshot = %+v, oracle %+v", step, cs, os)
		}
		cr, or := c.rng, *o.rng
		if cr.Uint64() != or.Uint64() {
			t.Fatalf("step %d: RNG streams diverged", step)
		}
	}
}

func diffPolicy(stability bool) Policy {
	if stability {
		return StabilityAware{}
	}
	return RandomReplace{}
}

// TestMCacheMatchesMapOracle is the differential property test: random
// operation sequences under both policies, at capacities from one slot
// to beyond Table I's 60.
func TestMCacheMatchesMapOracle(t *testing.T) {
	r := xrand.New(19)
	for trial := 0; trial < 300; trial++ {
		capacity := 1 + r.Intn(70)
		ops := make([]byte, 3*(50+r.Intn(400)))
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		diffMCaches(t, capacity, diffPolicy(trial%2 == 1), r.Uint64(), ops)
	}
}

func FuzzMCacheOps(f *testing.F) {
	f.Add(uint64(1), uint8(60), false, []byte{0, 1, 2, 0, 2, 3, 6, 1, 2, 4, 1, 0, 6, 0, 9})
	f.Add(uint64(7), uint8(2), true, []byte{0, 1, 5, 0, 2, 9, 0, 3, 1, 0, 4, 1, 7, 0, 0, 0, 5, 5})
	f.Fuzz(func(t *testing.T, seed uint64, capacity uint8, stability bool, ops []byte) {
		if capacity == 0 {
			t.Skip()
		}
		diffMCaches(t, int(capacity), diffPolicy(stability), seed, ops)
	})
}
