package sim

import (
	"runtime"
	"sync"
	"testing"
)

// TestPoolGoroutineCountStable verifies the persistent-pool property:
// after a warm-up call has grown the pool, repeated Parallel calls
// spawn no further goroutines.
func TestPoolGoroutineCountStable(t *testing.T) {
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("single-proc: Parallel runs inline, no pool to observe")
	}
	work := make([]int, 4096)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			work[i]++
		}
	}
	Parallel(len(work), body) // warm up: pool grows to GOMAXPROCS-ish
	before := runtime.NumGoroutine()
	for iter := 0; iter < 500; iter++ {
		Parallel(len(work), body)
	}
	after := runtime.NumGoroutine()
	// Concurrent tests may add goroutines of their own; what must not
	// happen is growth proportional to the 500 calls.
	if after > before+8 {
		t.Fatalf("goroutines grew from %d to %d over 500 Parallel calls", before, after)
	}
	for i, v := range work {
		if v != 501 {
			t.Fatalf("index %d covered %d times, want 501", i, v)
		}
	}
}

// TestNestedParallelNoDeadlock pins the non-blocking submission design:
// Parallel calls issued from inside a Parallel shard must complete even
// when every pool worker is busy (inner shards degrade to inline runs).
func TestNestedParallelNoDeadlock(t *testing.T) {
	outer := make([]int, 1024)
	Parallel(len(outer), func(lo, hi int) {
		inner := make([]int, 512)
		Parallel(len(inner), func(ilo, ihi int) {
			for i := ilo; i < ihi; i++ {
				inner[i] = 1
			}
		})
		s := 0
		for _, v := range inner {
			s += v
		}
		for i := lo; i < hi; i++ {
			outer[i] = s
		}
	})
	for i, v := range outer {
		if v != 512 {
			t.Fatalf("outer[%d] = %d, want 512", i, v)
		}
	}
}

// TestConcurrentParallelCallers exercises the shared pool from many
// goroutines at once — the done-channel recycling and non-blocking
// handoff must keep independent calls isolated.
func TestConcurrentParallelCallers(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int, 2048)
			for iter := 0; iter < 50; iter++ {
				Parallel(len(buf), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						buf[i]++
					}
				})
			}
			for i, v := range buf {
				if v != 50 {
					t.Errorf("buf[%d] = %d, want 50", i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelAllocationFreeAcrossCollections pins the two properties
// that keep a settled tick's allocation count the same from run to
// run: the completion channels survive a collection (a sync.Pool would
// be emptied by each one), and parking the caller and the workers
// draws on sudog caches that warmParking has already filled.
func TestParallelAllocationFreeAcrossCollections(t *testing.T) {
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("single-proc: Parallel runs inline, nothing is handed off")
	}
	work := make([]int, 1<<16)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			work[i]++
		}
	}
	Parallel(len(work), body) // start the pool
	const rounds, calls = 20, 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		for c := 0; c < calls; c++ {
			Parallel(len(work), body)
		}
		runtime.GC()
	}
	runtime.ReadMemStats(&after)
	// The collector's own bookkeeping may allocate a little per cycle;
	// what must not appear is a channel and its pool entries per cycle,
	// or a sudog every few calls.
	if got := after.Mallocs - before.Mallocs; got > rounds {
		t.Fatalf("%d allocations over %d Parallel calls and %d collections, want at most %d",
			got, rounds*calls, rounds, rounds)
	}
}
