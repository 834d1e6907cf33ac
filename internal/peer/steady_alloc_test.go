package peer

import (
	"fmt"
	"runtime"
	"testing"

	"coolstream/internal/sim"
)

// TestSteadyTickAllocationFree: a settled 20k-peer world ticks without
// allocating, at every shard count. The mCaches are fixed slot runs
// sampled into the caller's buffers and the due-wheels recirculate
// their bucket backings, so what is left in 30 ticks is a handful of
// mallocs (≤ 3 per tick against ≈ 5,000 with map-backed caches) and a
// post-GC heap that grows by wheel backings still ratcheting up to
// their peak (≤ 512 KiB against ≈ 10 MiB).
func TestSteadyTickAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's own mallocs land in the window")
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			w, engine, err := NewSyntheticWorld(20000, shards)
			if err != nil {
				t.Fatal(err)
			}
			tick := func(n int) {
				for i := 0; i < n; i++ {
					engine.Run(engine.Now() + sim.Second)
				}
			}
			tick(10)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tick(30)
			runtime.ReadMemStats(&after)
			mallocs := after.Mallocs - before.Mallocs
			runtime.GC()
			runtime.ReadMemStats(&after)
			growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			t.Logf("%d mallocs, %d B post-GC heap growth over 30 ticks of %d peers",
				mallocs, growth, w.ActivePeerCount())
			if mallocs > 90 {
				t.Errorf("%d mallocs in 30 steady ticks, want ≤ 90", mallocs)
			}
			if growth > 512<<10 {
				t.Errorf("live heap grew %d B in 30 steady ticks, want ≤ 512 KiB", growth)
			}
		})
	}
}
