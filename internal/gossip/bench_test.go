package gossip

import (
	"testing"

	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// The benchmarks below run each mCache operation on full Table I
// caches (60 entries), flat slot run against the map-backed oracle.
// "hot" hammers one cache that stays in L1; "cold" walks a population
// of caches round-robin, which is what a world does — every peer's
// cache is touched once per gossip period, so each operation starts
// from memory and the map's scattered buckets cost more than the
// run's 1.4 kB of contiguous slots.

const (
	benchCap  = 60
	benchCold = 16384
)

func fullCaches(pop int) ([]*MCache, []*oracleMCache) {
	cs, os := make([]*MCache, pop), make([]*oracleMCache, pop)
	for p := range cs {
		cs[p] = NewMCache(benchCap, RandomReplace{}, xrand.New(uint64(p+1)))
		os[p] = newOracleMCache(benchCap, RandomReplace{}, xrand.New(uint64(p+1)))
		for i := 0; i < benchCap; i++ {
			cs[p].Insert(entry(i), 0)
			os[p].Insert(entry(i), 0)
		}
	}
	return cs, os
}

// benchBoth runs flat and oracle as hot and cold sub-benchmarks. The op
// callbacks get the iteration number and that iteration's cache.
func benchBoth(b *testing.B, flat func(i int, c *MCache), oracle func(i int, o *oracleMCache)) {
	for _, tc := range []struct {
		name string
		pop  int
	}{{"hot", 1}, {"cold", benchCold}} {
		cs, os := fullCaches(tc.pop)
		b.Run(tc.name+"/flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				flat(i, cs[i%tc.pop])
			}
		})
		b.Run(tc.name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				oracle(i, os[i%tc.pop])
			}
		})
	}
}

// BenchmarkMCacheInsertKnown refreshes an entry the cache already holds
// — the steady-state gossip insert.
func BenchmarkMCacheInsertKnown(b *testing.B) {
	benchBoth(b,
		func(i int, c *MCache) { c.Insert(entry(i%benchCap), sim.Time(i)) },
		func(i int, o *oracleMCache) { o.Insert(entry(i%benchCap), sim.Time(i)) })
}

// BenchmarkMCacheInsertEvict inserts an unknown peer into a full cache:
// a failed lookup, a policy draw and an overwrite.
func BenchmarkMCacheInsertEvict(b *testing.B) {
	benchBoth(b,
		func(i int, c *MCache) { c.Insert(entry(benchCap+i), sim.Time(i)) },
		func(i int, o *oracleMCache) { o.Insert(entry(benchCap+i), sim.Time(i)) })
}

// BenchmarkMCacheSample draws the recruit path's five entries with the
// requester and a sorted partner list excluded.
func BenchmarkMCacheSample(b *testing.B) {
	partners := []int{3, 17, 29, 41, 58}
	var dst [8]Entry
	benchBoth(b,
		func(i int, c *MCache) { c.Sample(dst[:0], 5, i%benchCap, partners) },
		func(i int, o *oracleMCache) { o.Sample(5, i%benchCap, partners) })
}
