package workload

import (
	"math"
	"testing"
	"testing/quick"

	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

func TestRateProfileValidate(t *testing.T) {
	good := Constant(2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []RateProfile{
		{},
		{Boundaries: []sim.Time{0, 10}, Rates: []float64{1}},
		{Boundaries: []sim.Time{5}, Rates: []float64{1}},
		{Boundaries: []sim.Time{0, 10, 10}, Rates: []float64{1, 2, 3}},
		{Boundaries: []sim.Time{0}, Rates: []float64{-1}},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad profile %d validated", i)
		}
	}
}

func TestRateAtSegments(t *testing.T) {
	p := RateProfile{
		Boundaries: []sim.Time{0, 10 * sim.Second, 20 * sim.Second},
		Rates:      []float64{1, 5, 2},
	}
	cases := []struct {
		t    sim.Time
		want float64
	}{
		{0, 1}, {9 * sim.Second, 1}, {10 * sim.Second, 5},
		{19 * sim.Second, 5}, {20 * sim.Second, 2}, {sim.Hour, 2},
	}
	for _, c := range cases {
		if got := p.RateAt(c.t); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if p.MaxRate() != 5 {
		t.Errorf("MaxRate = %v", p.MaxRate())
	}
}

func TestScale(t *testing.T) {
	p := Constant(3).Scale(2)
	if p.Rates[0] != 6 {
		t.Fatalf("scaled rate %v", p.Rates[0])
	}
}

func TestArrivalsRateMatches(t *testing.T) {
	r := xrand.New(1)
	const rate = 5.0
	horizon := 2000 * sim.Second
	got := Arrivals(Constant(rate), horizon, r)
	want := rate * horizon.Seconds()
	if math.Abs(float64(len(got))-want) > 4*math.Sqrt(want) {
		t.Fatalf("arrivals %d, want ~%.0f", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
	if got[len(got)-1] >= horizon {
		t.Fatal("arrival past horizon")
	}
}

func TestArrivalsThinning(t *testing.T) {
	// Profile with silent second half: no arrivals may land there.
	p := RateProfile{Boundaries: []sim.Time{0, 500 * sim.Second}, Rates: []float64{3, 0}}
	got := Arrivals(p, 1000*sim.Second, xrand.New(2))
	if len(got) == 0 {
		t.Fatal("no arrivals in active half")
	}
	for _, at := range got {
		if at >= 500*sim.Second {
			t.Fatalf("arrival at %v in silent segment", at)
		}
	}
}

func TestArrivalsDegenerate(t *testing.T) {
	if Arrivals(Constant(0), sim.Hour, xrand.New(3)) != nil {
		t.Fatal("zero-rate arrivals not empty")
	}
	if Arrivals(Constant(5), 0, xrand.New(3)) != nil {
		t.Fatal("zero-horizon arrivals not empty")
	}
}

func TestDiurnalProfileShape(t *testing.T) {
	day := 24 * sim.Hour
	p := DiurnalProfile(day, 1, 6)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	night := p.RateAt(2 * sim.Hour)
	evening := p.RateAt(19 * sim.Hour)
	late := p.RateAt(23*sim.Hour + 30*sim.Minute)
	if evening <= 3*night {
		t.Fatalf("no evening peak: night %v evening %v", night, evening)
	}
	if late >= evening {
		t.Fatalf("no post-program decay: late %v evening %v", late, evening)
	}
	if ProgramEnd(day) != 22*sim.Hour {
		t.Fatalf("program end %v", ProgramEnd(day))
	}
}

func TestFlashCrowdProfile(t *testing.T) {
	p := FlashCrowd(60*sim.Second, 30*sim.Second, 0.5, 20)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.RateAt(10*sim.Second) != 0.5 || p.RateAt(70*sim.Second) != 20 || p.RateAt(100*sim.Second) != 0.5 {
		t.Fatal("flash crowd segments wrong")
	}
}

func TestSessionModelDurations(t *testing.T) {
	m := DefaultSessionModel(1)
	r := xrand.New(4)
	var short, long int
	const n = 20000
	for i := 0; i < n; i++ {
		d := m.Duration(r)
		if d <= 0 {
			t.Fatal("non-positive duration")
		}
		if d < sim.Minute {
			short++
		}
		if d > sim.Hour {
			long++
		}
	}
	// Fig. 10a: a visible spike of sub-minute sessions and a heavy tail.
	if frac := float64(short) / n; frac < 0.10 || frac > 0.45 {
		t.Fatalf("short-session fraction %.3f outside Fig. 10a shape", frac)
	}
	if frac := float64(long) / n; frac < 0.10 {
		t.Fatalf("long-session fraction %.3f lacks heavy tail", frac)
	}
}

func TestSessionModelTimeScale(t *testing.T) {
	full := DefaultSessionModel(1)
	tenth := DefaultSessionModel(0.1)
	r1, r2 := xrand.New(5), xrand.New(5)
	var sumFull, sumTenth float64
	for i := 0; i < 5000; i++ {
		sumFull += full.Duration(r1).Seconds()
		sumTenth += tenth.Duration(r2).Seconds()
	}
	ratio := sumTenth / sumFull
	if ratio < 0.05 || ratio > 0.2 {
		t.Fatalf("time scale ratio %.3f, want ~0.1", ratio)
	}
}

func TestPatienceDistribution(t *testing.T) {
	m := DefaultSessionModel(1)
	r := xrand.New(6)
	counts := map[int]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		p := m.Patience(r)
		if p < 0 || p > m.MaxRetry {
			t.Fatalf("patience %d out of range", p)
		}
		counts[p]++
	}
	if counts[0] == 0 || counts[m.MaxRetry] == 0 {
		t.Fatal("patience distribution degenerate")
	}
	// Geometric: zero retries should be the most common single value
	// besides possibly the cap.
	if counts[0] < counts[1] {
		t.Fatalf("patience not decreasing: %v", counts)
	}
}

func TestGenerateScenario(t *testing.T) {
	day := 2 * sim.Hour
	opts := Options{
		Profile:    DiurnalProfile(day, 0.3, 6),
		Horizon:    day,
		Mix:        netmodel.DefaultClassMix(),
		Capacity:   netmodel.DefaultCapacityProfile(768e3),
		Sessions:   DefaultSessionModel(float64(day) / float64(24*sim.Hour)),
		ProgramEnd: ProgramEnd(day),
		EndJitter:  30 * sim.Second,
	}
	sc, err := Generate(opts, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Specs) < 100 {
		t.Fatalf("only %d arrivals", len(sc.Specs))
	}
	// User IDs unique and ascending arrival times.
	for i := 1; i < len(sc.Specs); i++ {
		if sc.Specs[i].At < sc.Specs[i-1].At {
			t.Fatal("arrivals unsorted")
		}
		if sc.Specs[i].UserID == sc.Specs[i-1].UserID {
			t.Fatal("duplicate user IDs")
		}
	}
	// The 22:00 cliff: intended concurrency just before program end
	// must collapse shortly after it.
	before := countAt(sc, sc.ProgramEnd-sim.Minute)
	after := countAt(sc, sc.ProgramEnd+2*opts.EndJitter)
	if before < 20 {
		t.Fatalf("too few concurrent users before program end: %d", before)
	}
	if float64(after) > 0.35*float64(before) {
		t.Fatalf("no departure cliff: %d before, %d after", before, after)
	}
	// Evening concurrency must exceed early-day concurrency (Fig. 5a).
	morning := countAt(sc, day/4)
	evening := countAt(sc, sim.Time(float64(day)*20/24))
	if evening <= morning {
		t.Fatalf("no evening peak: morning %d evening %d", morning, evening)
	}
}

// countAt returns how many users would be concurrently present at t if
// every session succeeded immediately — the intended-load curve the
// generated scenario is sanity-checked against (Fig. 5).
func countAt(sc Scenario, t sim.Time) int {
	n := 0
	for _, s := range sc.Specs {
		if s.At <= t && t < s.At+s.Watch {
			n++
		}
	}
	return n
}

func TestGenerateValidation(t *testing.T) {
	_, err := Generate(Options{}, xrand.New(1))
	if err == nil {
		t.Fatal("empty options accepted")
	}
	opts := Options{Profile: Constant(1), Horizon: sim.Hour}
	if _, err := Generate(opts, xrand.New(1)); err == nil {
		t.Fatal("nil session model accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := Options{
		Profile:  Constant(1),
		Horizon:  10 * sim.Minute,
		Mix:      netmodel.DefaultClassMix(),
		Capacity: netmodel.DefaultCapacityProfile(768e3),
		Sessions: DefaultSessionModel(0.1),
	}
	a, _ := Generate(opts, xrand.New(9))
	b, _ := Generate(opts, xrand.New(9))
	if len(a.Specs) != len(b.Specs) {
		t.Fatal("non-deterministic arrival count")
	}
	for i := range a.Specs {
		if a.Specs[i] != b.Specs[i] {
			t.Fatalf("spec %d differs", i)
		}
	}
}

func TestQuickProfileNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		day := sim.Hour
		p := DiurnalProfile(day, r.Float64()*2, 2+r.Float64()*8)
		for i := 0; i < 50; i++ {
			if p.RateAt(sim.Time(r.Int63n(int64(day)))) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
