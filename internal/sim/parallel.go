package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package keeps one persistent, lazily-started worker pool shared
// by all Parallel/ParallelReduce callers. Steady-state ticks therefore
// spawn zero goroutines: shards are handed to parked workers over an
// unbuffered channel, and the submitting goroutine always executes the
// first shard itself. Determinism is unaffected — shard boundaries
// depend only on (n, GOMAXPROCS), and the contract that fn(lo, hi)
// touches only state owned by [lo, hi) makes results independent of
// which worker runs which shard.
//
// Submission is non-blocking: a shard is handed off only to a worker
// that is already parked in receive; otherwise the caller runs it
// inline. This keeps nested or concurrent Parallel calls deadlock-free
// (a fixed-size pool with blocking submission could have every worker
// waiting on a sub-call's shards).

type shardTask struct {
	fn func(lo, hi int)
	// fnIdx, when non-nil, is invoked instead of fn with the shard's
	// index (see ParallelShard).
	fnIdx  func(shard, lo, hi int)
	shard  int
	lo, hi int
	done   chan<- struct{}
}

var (
	poolMu   sync.Mutex
	poolCh   chan shardTask
	poolSize atomic.Int64
)

// doneFree recycles completion channels so a steady-state Parallel
// call performs no allocations. It is a plain free list and not a
// sync.Pool: the collector empties a sync.Pool, so after every
// collection the next calls allocated a channel and the pool's per-P
// bookkeeping again, how often depending on which P the caller ran on.
// A completion channel's buffer bounds how far workers can run ahead
// of the caller's drain loop; a smaller buffer would still be correct
// (workers would briefly block on the send), just slower.
var doneFree = make(chan chan struct{}, 16)

func getDone() chan struct{} {
	select {
	case done := <-doneFree:
		return done
	default:
		return make(chan struct{}, 256)
	}
}

func putDone(done chan struct{}) {
	select {
	case doneFree <- done:
	default:
	}
}

// parkBurst is how many goroutines warmParking parks at once, and
// spareThreads how many of them park wired to their OS thread.
const (
	parkBurst    = 512
	spareThreads = 4
)

// warmParking parks a burst of goroutines on one channel and lets them
// all go, once, when the pool starts. It takes two of the runtime's
// lazily grown pools to their working size before anything is measured
// rather than during it; neither changes what a shard computes.
//
// A goroutine that parks on a channel takes a sudog from a cache the
// runtime keeps per P, which starts empty and refills by allocating;
// the goroutine gives it back to whichever P it wakes on. The caller
// and a worker park once per phase each and the scheduler decides
// where they wake, so the caches drift and, while they hold only the
// few sudogs a quiet process has ever needed at once, one runs dry
// every few hundred phases: a settled tick that allocates nothing of
// its own showed 0 to 17 runtime allocations per 720 phases, a
// different number each run. The burst leaves every P it woke on with
// a full cache (128, never shrunk below half), which the drift does
// not exhaust.
//
// A send that wakes a parked goroutine while a P is idle and no thread
// is (the other one is in the poller, or on its way to sleep) starts a
// thread: six allocations, about 5 KB, in one run of ten. The wired
// goroutines each hold a thread while the rest of the burst keeps both
// Ps busy, so the runtime starts that many more, and keeps them.
func warmParking() {
	gate := make(chan struct{})
	var started, left sync.WaitGroup
	started.Add(parkBurst)
	left.Add(parkBurst)
	for i := 0; i < parkBurst; i++ {
		go func(wired bool) {
			if wired {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			started.Done()
			<-gate
			left.Done()
		}(i < spareThreads)
	}
	started.Wait()
	close(gate)
	left.Wait()
}

func poolWorker(ch chan shardTask) {
	for t := range ch {
		if t.fnIdx != nil {
			t.fnIdx(t.shard, t.lo, t.hi)
		} else {
			t.fn(t.lo, t.hi)
		}
		t.done <- struct{}{}
	}
}

// ensurePool grows the worker pool to at least `workers` goroutines
// and returns the submission channel. Workers are never torn down;
// they park on channel receive between ticks.
func ensurePool(workers int) chan shardTask {
	if int(poolSize.Load()) >= workers && poolCh != nil {
		return poolCh
	}
	poolMu.Lock()
	if poolCh == nil {
		poolCh = make(chan shardTask)
		warmParking()
	}
	for int(poolSize.Load()) < workers {
		go poolWorker(poolCh)
		poolSize.Add(1)
	}
	ch := poolCh
	poolMu.Unlock()
	return ch
}

// runShards executes fn over the chunked shards of [0, n) using the
// persistent pool. The caller's goroutine always runs shard 0 (and any
// shard no worker was free to take) so at least one shard never pays a
// handoff.
func runShards(n, chunk int, fn func(lo, hi int)) {
	nShards := (n + chunk - 1) / chunk
	ch := ensurePool(nShards - 1)
	done := getDone()
	submitted := 0
	for s := 1; s < nShards; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		select {
		case ch <- shardTask{fn: fn, lo: lo, hi: hi, done: done}:
			submitted++
		default:
			// No parked worker (cold pool, nested call, or contention):
			// degrade gracefully by running the shard inline.
			fn(lo, hi)
		}
	}
	fn(0, chunk)
	for i := 0; i < submitted; i++ {
		<-done
	}
	putDone(done)
}

// runShardsIdx is runShards for shard-indexed functions: shard s (the
// contiguous chunk starting at s*chunk) receives its own index, so a
// worker can address per-shard state (e.g. a log lane) with no
// synchronization. Kept as a separate body rather than a closure over
// runShards so the steady-state call allocates nothing.
func runShardsIdx(n, chunk int, fn func(shard, lo, hi int)) {
	nShards := (n + chunk - 1) / chunk
	ch := ensurePool(nShards - 1)
	done := getDone()
	submitted := 0
	for s := 1; s < nShards; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		select {
		case ch <- shardTask{fnIdx: fn, shard: s, lo: lo, hi: hi, done: done}:
			submitted++
		default:
			// No parked worker (cold pool, nested call, or contention):
			// degrade gracefully by running the shard inline.
			fn(s, lo, hi)
		}
	}
	fn(0, 0, chunk)
	for i := 0; i < submitted; i++ {
		<-done
	}
	putDone(done)
}

// minShard is the default grain: slices shorter than two grains run
// inline, since per-item work in the simulator's per-node phases is
// too small to amortise a handoff.
const minShard = 64

// Parallel partitions [0, n) into contiguous shards and runs fn on
// each shard from the persistent worker pool sized to GOMAXPROCS, then
// waits for all of them. fn(lo, hi) must touch only state owned by
// indices [lo, hi), so the result is independent of scheduling — the
// simulator stays deterministic at any GOMAXPROCS.
//
// For small n the call runs inline to avoid handoff overhead.
func Parallel(n int, fn func(lo, hi int)) {
	ParallelGrain(n, minShard, fn)
}

// ParallelGrain is Parallel with an explicit inline threshold: the
// call fans out only when n >= 2*grain (and more than one worker is
// available). Use grain 1 for phases whose per-item work is large —
// e.g. one item per sub-stream forest — where even n = 2 is worth a
// handoff.
func ParallelGrain(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers == 1 || n < 2*grain {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	runShards(n, chunk, fn)
}

// ParallelShard is ParallelGrain passing each shard's index to fn.
// Shard indices are contiguous from 0 and deterministic given (n,
// GOMAXPROCS): shard s covers [s*chunk, min((s+1)*chunk, n)). The
// index count never exceeds GOMAXPROCS at call time, so per-shard
// state sized to GOMAXPROCS (grown sequentially between phases) is
// race-free.
func ParallelShard(n, grain int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers == 1 || n < 2*grain {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	runShardsIdx(n, chunk, fn)
}

// ParallelReduce runs fn over shards like Parallel, collecting one
// partial result per shard, and folds the partials in shard order with
// merge so the reduction is deterministic.
func ParallelReduce[T any](n int, fn func(lo, hi int) T, merge func(a, b T) T) T {
	var zero T
	if n <= 0 {
		return zero
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers == 1 || n < 2*minShard {
		return fn(0, n)
	}
	chunk := (n + workers - 1) / workers
	nShards := (n + chunk - 1) / chunk
	partials := make([]T, nShards)
	runShards(n, chunk, func(lo, hi int) {
		partials[lo/chunk] = fn(lo, hi)
	})
	acc := partials[0]
	for _, p := range partials[1:] {
		acc = merge(acc, p)
	}
	return acc
}
