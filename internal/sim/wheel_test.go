package sim

import (
	"sort"
	"testing"

	"coolstream/internal/xrand"
)

func drainSorted(w *Wheel, now Time) []int {
	out := w.DrainTo(now, nil)
	ids := make([]int, len(out))
	for i, v := range out {
		ids[i] = int(v)
	}
	sort.Ints(ids)
	return ids
}

func TestWheelBasicOrder(t *testing.T) {
	w := NewWheel(Second, 8, 0)
	w.Schedule(3, 2*Second)
	w.Schedule(1, 0)
	w.Schedule(2, Second)
	if got := drainSorted(w, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("tick 0 drained %v", got)
	}
	if got := drainSorted(w, Second); len(got) != 1 || got[0] != 2 {
		t.Fatalf("tick 1 drained %v", got)
	}
	if got := drainSorted(w, 2*Second); len(got) != 1 || got[0] != 3 {
		t.Fatalf("tick 2 drained %v", got)
	}
	if w.Pending() != 0 {
		t.Fatalf("pending %d after full drain", w.Pending())
	}
}

func TestWheelClampsPastAndMidTick(t *testing.T) {
	w := NewWheel(Second, 8, 0)
	w.DrainTo(3*Second, nil) // base now 4s
	w.Schedule(1, Second)    // in the past: clamps to base
	w.Schedule(2, 4*Second+300*Millisecond)
	if got := drainSorted(w, 4*Second); len(got) != 1 || got[0] != 1 {
		t.Fatalf("clamped-past drain %v", got)
	}
	// 4.3s rounds up to the 5s tick.
	if got := drainSorted(w, 5*Second); len(got) != 1 || got[0] != 2 {
		t.Fatalf("mid-tick drain %v", got)
	}
}

func TestWheelBucketOverflowToList(t *testing.T) {
	w := NewWheel(Second, 4, 0) // 4-slot ring
	// Everything at or past base+4s must go to the overflow list.
	w.Schedule(10, 4*Second)
	w.Schedule(11, 100*Second)
	w.Schedule(12, 5*Second)
	if len(w.overflow) != 3 {
		t.Fatalf("overflow holds %d entries, want 3", len(w.overflow))
	}
	var got []int
	for tick := Time(0); tick <= 6*Second; tick += Second {
		for _, v := range w.DrainTo(tick, nil) {
			got = append(got, int(v))
		}
	}
	sort.Ints(got)
	if len(got) != 2 || got[0] != 10 || got[1] != 12 {
		t.Fatalf("drained %v by 6s, want [10 12]", got)
	}
	if got := drainSorted(w, 100*Second); len(got) != 1 || got[0] != 11 {
		t.Fatalf("far-future entry drained %v", got)
	}
}

func TestWheelFarFutureSurvivesManyRevolutions(t *testing.T) {
	w := NewWheel(Second, 4, 0)
	const far = 1000 * Second // 250 ring revolutions out
	w.Schedule(7, far)
	for tick := Time(0); tick < far; tick += Second {
		if out := w.DrainTo(tick, nil); len(out) != 0 {
			t.Fatalf("ID popped early at %v", tick)
		}
	}
	if got := drainSorted(w, far); len(got) != 1 || got[0] != 7 {
		t.Fatalf("far-future drain %v", got)
	}
}

func TestWheelDuplicatesPreserved(t *testing.T) {
	w := NewWheel(Second, 8, 0)
	w.Schedule(5, Second)
	w.Schedule(5, Second)
	w.Schedule(5, 2*Second)
	if got := drainSorted(w, Second); len(got) != 2 {
		t.Fatalf("want duplicate pops, got %v", got)
	}
	if got := drainSorted(w, 2*Second); len(got) != 1 {
		t.Fatalf("third pop %v", got)
	}
}

// TestWheelRescheduleWhileDue pins the drain/schedule interleaving the
// control plane relies on: once a tick has been drained, scheduling
// "at now" lands in the NEXT tick, never in the already-drained one.
func TestWheelRescheduleWhileDue(t *testing.T) {
	w := NewWheel(Second, 8, 0)
	w.Schedule(1, 5*Second)
	got := drainSorted(w, 5*Second)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("drain %v", got)
	}
	// Mid-visit self-reschedule at the same timestamp.
	w.Schedule(1, 5*Second)
	if out := w.DrainTo(5*Second, nil); len(out) != 0 {
		t.Fatal("re-drained the same tick")
	}
	if got := drainSorted(w, 6*Second); len(got) != 1 || got[0] != 1 {
		t.Fatalf("next-tick drain %v", got)
	}
}

// TestWheelMatchesReferenceModel drives random schedules against a
// naive (time → IDs) map and checks every drained tick's multiset.
func TestWheelMatchesReferenceModel(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 20; trial++ {
		w := NewWheel(Second, 16, 0)
		model := map[Time][]int{}
		now := Time(0)
		nextID := 0
		for step := 0; step < 400; step++ {
			switch rng.Intn(3) {
			case 0, 1: // schedule a batch
				for k := rng.Intn(4); k >= 0; k-- {
					at := now + Time(rng.Intn(120))*Second
					if rng.Bool(0.1) {
						at += Time(rng.Intn(900)) * Millisecond
					}
					id := nextID
					nextID++
					w.Schedule(id, at)
					// The model clamps exactly like the wheel: next
					// drained tick ≥ at.
					due := at
					if due < now {
						due = now
					}
					due = ((due + Second - 1) / Second) * Second
					model[due] = append(model[due], id)
				}
			case 2: // advance one tick and drain
				got := drainSorted(w, now)
				want := append([]int(nil), model[now]...)
				sort.Ints(want)
				delete(model, now)
				if len(got) != len(want) {
					t.Fatalf("trial %d tick %v: drained %v want %v", trial, now, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d tick %v: drained %v want %v", trial, now, got, want)
					}
				}
				now += Second
			}
		}
	}
}

// TestWheelBackingsFollowWindow: a population that only ever schedules
// one to five ticks ahead keeps the wheel's memory at its occupied
// window for three full ring revolutions — bucket backings plus spares
// never exceed window + 1, where the per-bucket backings this replaced
// grew to one per ring slot — and every drain comes out in exactly the
// order of a naive model: entries stably sorted by due tick.
func TestWheelBackingsFollowWindow(t *testing.T) {
	const window = 5
	w := NewWheel(Second, 64, 0)
	type due struct {
		at Time
		id int32
	}
	var model []due // schedule order; drained by a stable filter on at
	rng := xrand.New(5)
	nextID := int32(0)
	var got []int32
	for now := Time(0); now < Time(3*w.Span())*Second; now += Second {
		got = w.DrainTo(now, got[:0])
		var want []int32
		kept := model[:0]
		for _, d := range model {
			if d.at <= now {
				want = append(want, d.id)
			} else {
				kept = append(kept, d)
			}
		}
		model = kept
		if len(got) != len(want) {
			t.Fatalf("tick %v: drained %v, model %v", now, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tick %v: drained %v, model %v", now, got, want)
			}
		}
		for k := 20 + rng.Intn(20); k > 0; k-- {
			at := now + Time(1+rng.Intn(window))*Second
			w.Schedule(int(nextID), at)
			model = append(model, due{at, nextID})
			nextID++
		}
		backings := len(w.spares)
		for _, b := range w.buckets {
			if b != nil {
				backings++
			}
		}
		if backings > window+1 {
			t.Fatalf("tick %v: %d bucket backings + spares for a %d-tick window", now, backings, window)
		}
	}
	if nextID == 0 || w.Pending() != len(model) {
		t.Fatalf("pending %d, model %d", w.Pending(), len(model))
	}
}
