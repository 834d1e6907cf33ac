// Package stat holds the estimators the benchmark driver reports with:
// medians and quartiles over repeats, the grouped-data percentile used
// on integer lag samples, and the Little's-law delay estimator with
// the seeded random sampling schedule that feeds it.
package stat

import (
	"math/rand"
	"sort"
	"time"
)

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method),
// which is what the benchmark harness judges spreads with. It needs at
// least two values; with fewer it returns the single value thrice.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// IQRShare is the distance between the first and third quartile as a
// share of the median — the spread the harness compares with a
// metric's bound. A zero median yields 0.
func IQRShare(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 {
		return 0
	}
	return abs(q3-q1) / abs(med)
}

// RangeShare is (max−min)/median, the stricter spread -selfcheck
// prints next to IQRShare.
func RangeShare(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	med := Median(s)
	if med == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / abs(med)
}

// Percentile returns the p-quantile (0..1) of xs by linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Hist is a histogram of non-negative integer observations (lags in
// whole blocks). Values past the last bin are clamped into it.
type Hist struct {
	counts []uint64
	n      uint64
	sum    float64
}

// NewHist returns a histogram with bins 0..max.
func NewHist(max int) *Hist { return &Hist{counts: make([]uint64, max+1)} }

// Add records one observation; negative values count as 0.
func (h *Hist) Add(v int) {
	if v < 0 {
		v = 0
	}
	h.sum += float64(v)
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	h.counts[v]++
	h.n++
}

// N is the number of observations.
func (h *Hist) N() uint64 { return h.n }

// Mean is the exact mean of the observations (not of the clamped bins).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Percentile is the grouped-data percentile: the integer value v
// stands for the class [v−½, v+½) (clipped at 0), and the result is
// interpolated linearly inside the class the p-quantile falls in, so a
// tail that sits between "one block" and "two blocks" moves smoothly
// instead of jumping a whole block.
func (h *Hist) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := p * float64(h.n)
	cum := 0.0
	for v, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := float64(v)-0.5, float64(v)+0.5
			if lo < 0 {
				lo = 0
			}
			return lo + (target-cum)/float64(c)*(hi-lo)
		}
		cum += float64(c)
	}
	return float64(len(h.counts)-1) + 0.5
}

// Sampler yields the pauses between lag samples: uniform in
// [Min, Max], seeded. A fixed-period sampler aliases with a periodic
// block ticker — it sees the same phase of every block interval and
// reports that phase's occupancy as the mean — so the pause must be
// random and span more than one block interval.
type Sampler struct {
	rng      *rand.Rand
	min, max time.Duration
}

// NewSampler returns a sampler drawing pauses uniformly from [min, max].
func NewSampler(seed uint64, min, max time.Duration) *Sampler {
	return &Sampler{rng: rand.New(rand.NewSource(int64(seed))), min: min, max: max}
}

// Next returns the next pause.
func (s *Sampler) Next() time.Duration {
	if s.max <= s.min {
		return s.min
	}
	return s.min + time.Duration(s.rng.Int63n(int64(s.max-s.min)+1))
}

// Lag estimates source→peer delay from occupancy samples by Little's
// law: the time-average number of blocks the source has produced and
// the peer has not yet received, divided by the block rate, is the
// mean time a block spends on the way. Samples are grouped into equal
// sub-windows and the reported value is the median over sub-windows of
// the sub-window estimate, so a one-second disturbance moves one
// sub-window instead of the result.
type Lag struct {
	sub []*Hist
}

// NewLag returns an estimator with the given number of sub-windows and
// a largest distinguishable lag of maxBlocks.
func NewLag(subWindows, maxBlocks int) *Lag {
	l := &Lag{sub: make([]*Hist, subWindows)}
	for i := range l.sub {
		l.sub[i] = NewHist(maxBlocks)
	}
	return l
}

// Add records one occupancy sample (blocks outstanding) taken at the
// given fraction (0..1) of the measured window.
func (l *Lag) Add(windowFrac float64, blocks int) {
	i := int(windowFrac * float64(len(l.sub)))
	if i < 0 {
		i = 0
	}
	if i >= len(l.sub) {
		i = len(l.sub) - 1
	}
	l.sub[i].Add(blocks)
}

// Samples is the total sample count.
func (l *Lag) Samples() uint64 {
	var n uint64
	for _, h := range l.sub {
		n += h.n
	}
	return n
}

// MeanDelay returns the median over sub-windows of mean occupancy /
// blocksPerSecond, in seconds. Empty sub-windows are skipped.
func (l *Lag) MeanDelay(blocksPerSecond float64) float64 {
	return l.overSubWindows(blocksPerSecond, (*Hist).Mean)
}

// PercentileDelay returns the median over sub-windows of the grouped
// p-quantile of occupancy / blocksPerSecond, in seconds.
func (l *Lag) PercentileDelay(p, blocksPerSecond float64) float64 {
	return l.overSubWindows(blocksPerSecond, func(h *Hist) float64 { return h.Percentile(p) })
}

func (l *Lag) overSubWindows(rate float64, f func(*Hist) float64) float64 {
	if rate <= 0 {
		return 0
	}
	vals := make([]float64, 0, len(l.sub))
	for _, h := range l.sub {
		if h.n > 0 {
			vals = append(vals, f(h)/rate)
		}
	}
	return Median(vals)
}
