package stat

import (
	"math"
	"testing"
	"time"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 3, 3, 3}, 3, 3, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if !near(q1, c.q1, 1e-12) || !near(q2, c.q2, 1e-12) || !near(q3, c.q3, 1e-12) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := Median([]float64{4, 1, 3}); m != 3 {
		t.Errorf("odd median %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if s := IQRShare(xs); !near(s, 1, 1e-12) {
		t.Errorf("IQRShare %v", s)
	}
	if s := RangeShare(xs); !near(s, 9/5.5, 1e-12) {
		t.Errorf("RangeShare %v", s)
	}
	if p := Percentile(xs, 0.5); !near(p, 5.5, 1e-12) {
		t.Errorf("Percentile %v", p)
	}
}

func TestHistPercentileInterpolatesInsideBin(t *testing.T) {
	h := NewHist(16)
	// 90 samples at lag 1, 10 at lag 2.
	for i := 0; i < 90; i++ {
		h.Add(1)
	}
	for i := 0; i < 10; i++ {
		h.Add(2)
	}
	if m := h.Mean(); !near(m, 1.1, 1e-12) {
		t.Fatalf("mean %v", m)
	}
	// p50 falls in the class [0.5,1.5): 50/90 of the way through it.
	if p := h.Percentile(0.5); !near(p, 0.5+50.0/90, 1e-12) {
		t.Errorf("p50 %v", p)
	}
	// p99 falls in the class [1.5,2.5): 9/10 of the way through it.
	if p := h.Percentile(0.99); !near(p, 1.5+0.9, 1e-9) {
		t.Errorf("p99 %v", p)
	}
	// Moving one sample between bins moves p99 by a fraction of a
	// block, not a whole block.
	h2 := NewHist(16)
	for i := 0; i < 91; i++ {
		h2.Add(1)
	}
	for i := 0; i < 9; i++ {
		h2.Add(2)
	}
	if d := h.Percentile(0.99) - h2.Percentile(0.99); d <= 0 || d > 0.2 {
		t.Errorf("p99 moved %v blocks for one sample", d)
	}
	// Clamping keeps the mean exact.
	h3 := NewHist(4)
	h3.Add(100)
	if h3.Mean() != 100 || h3.Percentile(0.5) > 4.5 {
		t.Errorf("clamp: mean %v p50 %v", h3.Mean(), h3.Percentile(0.5))
	}
}

// occupancy is the synthetic stream of the sampler tests: the source
// emits a block every period and the peer receives it delay later, so
// exactly one block is outstanding during [k·period, k·period+delay).
func occupancy(at, period, delay time.Duration) int {
	if at%period < delay {
		return 1
	}
	return 0
}

func TestFixedSamplerAliasesRandomSamplerDoesNot(t *testing.T) {
	const (
		period = 5 * time.Millisecond
		delay  = 2 * time.Millisecond
		window = 20 * time.Second
	)
	rate := float64(time.Second) / float64(period)
	estimate := func(next func() time.Duration, phase time.Duration) float64 {
		l := NewLag(15, 64)
		for at := phase; at < window; at += next() {
			l.Add(float64(at)/float64(window), occupancy(at, period, delay))
		}
		return l.MeanDelay(rate) * 1e3 // ms
	}
	trueMs := float64(delay) / float64(time.Millisecond)

	// A 5 ms sampler against the 5 ms ticker sees one phase only: with
	// phase 1 ms it always finds the block outstanding (5 ms, 2.5× the
	// truth); with phase 3 ms it never does (0 ms).
	fixed := func() time.Duration { return period }
	if got := estimate(fixed, time.Millisecond); !near(got, 5, 1e-9) {
		t.Errorf("fixed sampler at phase 1ms: %v ms, expected the aliased 5 ms", got)
	}
	if got := estimate(fixed, 3*time.Millisecond); got != 0 {
		t.Errorf("fixed sampler at phase 3ms: %v ms, expected the aliased 0 ms", got)
	}

	// The seeded 1–7 ms sampler lands within 5% of the truth whatever
	// the phase or seed.
	for seed := uint64(1); seed <= 5; seed++ {
		s := NewSampler(seed, time.Millisecond, 7*time.Millisecond)
		got := estimate(s.Next, time.Duration(seed)*time.Millisecond)
		if math.Abs(got-trueMs)/trueMs > 0.05 {
			t.Errorf("seed %d: random sampler %v ms, want %v ±5%%", seed, got, trueMs)
		}
	}
}

func TestSamplerIsSeededAndBounded(t *testing.T) {
	a := NewSampler(7, time.Millisecond, 7*time.Millisecond)
	b := NewSampler(7, time.Millisecond, 7*time.Millisecond)
	for i := 0; i < 1000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("same seed diverged at draw %d", i)
		}
		if x < time.Millisecond || x > 7*time.Millisecond {
			t.Fatalf("pause %v out of range", x)
		}
	}
}

func TestLagSubWindowMedianIgnoresOneDisturbedWindow(t *testing.T) {
	l := NewLag(15, 256)
	for w := 0; w < 15; w++ {
		frac := (float64(w) + 0.5) / 15
		lag := 2
		if w == 7 {
			lag = 200 // one disturbed sub-window
		}
		for i := 0; i < 100; i++ {
			l.Add(frac, lag)
		}
	}
	if got := l.MeanDelay(200) * 1e3; !near(got, 10, 1e-9) {
		t.Errorf("mean delay %v ms, want 10", got)
	}
	if got := l.PercentileDelay(0.99, 200) * 1e3; got < 7.5 || got > 12.5 {
		t.Errorf("p99 delay %v ms, want within the 2-block class", got)
	}
	if l.Samples() != 1500 {
		t.Errorf("samples %d", l.Samples())
	}
}
