package sim

// Wheel is a bucketed timing wheel over the engine's tick grid, built
// for due-driven control scheduling: callers enqueue integer IDs at
// absolute virtual due times, and each tick drains every ID whose due
// time has arrived. It converts an O(population) per-tick sweep into
// O(due work).
//
// Design:
//
//   - Buckets are one tick period wide. Bucket i of the ring holds the
//     IDs due at base + i*tick, where base is the earliest undrained
//     tick. The ring spans `span = len(buckets)` ticks.
//   - Dues beyond the ring land in a single overflow list with a
//     tracked minimum; as the ring advances past overflowMin the list
//     is re-filed into buckets (amortised: each entry migrates at most
//     ⌈horizon/span⌉ times, once per full ring revolution).
//   - Dues in the past (or between ticks) are clamped forward to base,
//     the next tick that will drain — a wheel cannot act between ticks,
//     and the engine fires same-timestamp events before the tick, so a
//     clamp to base never loses a deadline.
//   - The wheel never deduplicates: an ID scheduled twice pops twice.
//     Callers that need exactly-once semantics deduplicate the drained
//     set (it arrives bucket-ordered, not sorted).
//
// The wheel is deliberately value-oriented and allocation-light, and
// its memory follows the occupied window, not the ring size: a drained
// bucket hands its backing array to a spare stack and Schedule into a
// bucket without backing pops one, so a population that only ever
// schedules a few ticks ahead keeps a few backings circulating instead
// of growing one per ring slot over a full revolution. Schedule
// allocates only while that circulating set is still growing — the
// window widened, or a bucket outgrew the backing it popped; the drain
// output is the caller's slice.
type Wheel struct {
	tick Time
	base Time // due time of buckets[cur]; earliest undrained tick
	cur  int  // ring index of base
	mask int  // len(buckets)-1; len is a power of two

	// buckets[i] is nil while empty; spares stacks the emptied backings
	// (most recently drained on top) for the next bucket that needs one.
	buckets  [][]int32
	spares   [][]int32
	overflow []wheelEntry
	// overflowMin is the smallest due time in overflow; meaningless
	// when overflow is empty.
	overflowMin Time
}

type wheelEntry struct {
	id int32
	at Time
}

// NewWheel creates a wheel with the given tick period and at least
// minBuckets ring slots (rounded up to a power of two). The first
// drainable tick is firstTick; schedule times before it clamp forward.
func NewWheel(tick Time, minBuckets int, firstTick Time) *Wheel {
	if tick <= 0 {
		panic("sim: non-positive wheel tick")
	}
	if minBuckets < 1 {
		minBuckets = 1
	}
	n := 1
	for n < minBuckets {
		n <<= 1
	}
	return &Wheel{
		tick:    tick,
		base:    firstTick,
		buckets: make([][]int32, n),
		mask:    n - 1,
	}
}

// Span returns the ring width in ticks.
func (w *Wheel) Span() int { return w.mask + 1 }

// Base returns the earliest undrained tick time.
func (w *Wheel) Base() Time { return w.base }

// Schedule enqueues id to pop at the first drained tick ≥ at. Times in
// the past clamp to the next undrained tick.
func (w *Wheel) Schedule(id int, at Time) {
	if at < w.base {
		at = w.base
	}
	slots := Time(w.mask + 1)
	d := (at - w.base + w.tick - 1) / w.tick // ticks ahead, rounded up
	if d >= slots {
		if len(w.overflow) == 0 || at < w.overflowMin {
			w.overflowMin = at
		}
		w.overflow = append(w.overflow, wheelEntry{id: int32(id), at: at})
		return
	}
	idx := (w.cur + int(d)) & w.mask
	b := w.buckets[idx]
	if m := len(w.spares); b == nil && m > 0 {
		b = w.spares[m-1]
		w.spares[m-1] = nil
		w.spares = w.spares[:m-1]
	}
	w.buckets[idx] = append(b, int32(id))
}

// DrainTo appends to out every ID scheduled at or before now, advancing
// the ring, and returns the extended slice. IDs arrive in bucket order
// with duplicates preserved; callers sort/deduplicate as needed.
func (w *Wheel) DrainTo(now Time, out []int32) []int32 {
	for w.base <= now {
		if b := w.buckets[w.cur]; b != nil {
			out = append(out, b...)
			w.spares = append(w.spares, b[:0])
			w.buckets[w.cur] = nil
		}
		w.base += w.tick
		w.cur = (w.cur + 1) & w.mask
		w.refileOverflow()
	}
	return out
}

// refileOverflow moves overflow entries that now fit the ring into
// their buckets. Called once per ring step; skips in O(1) unless the
// window has actually reached the overflow minimum.
func (w *Wheel) refileOverflow() {
	if len(w.overflow) == 0 {
		return
	}
	// lastSlot is the latest due time the ring can hold: Schedule files
	// entries with ceil((at-base)/tick) ≤ mask into buckets. Using the
	// exact same boundary here guarantees a refiled entry never bounces
	// back into the overflow list mid-iteration.
	lastSlot := w.base + Time(w.mask)*w.tick
	if w.overflowMin > lastSlot {
		return
	}
	kept := w.overflow[:0]
	min := Time(0)
	for _, e := range w.overflow {
		if e.at <= lastSlot {
			w.Schedule(int(e.id), e.at)
			continue
		}
		if len(kept) == 0 || e.at < min {
			min = e.at
		}
		kept = append(kept, e)
	}
	w.overflow = kept
	w.overflowMin = min
}

// Pending returns the total number of queued entries (ring plus
// overflow), counting duplicates.
func (w *Wheel) Pending() int {
	n := len(w.overflow)
	for _, b := range w.buckets {
		n += len(b)
	}
	return n
}
