package workload

import (
	"fmt"

	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// UserSpec is one planned user: when they arrive, what machine they
// sit on, how long they intend to watch, and how many failed joins
// they will tolerate.
type UserSpec struct {
	UserID   int
	At       sim.Time
	Endpoint netmodel.Endpoint
	Watch    sim.Time
	Patience int
}

// Scenario is a fully materialised workload: a deterministic list of
// user arrivals for a run.
type Scenario struct {
	Specs      []UserSpec
	Horizon    sim.Time
	ProgramEnd sim.Time // zero when no program boundary applies
}

// Options configures scenario generation.
type Options struct {
	Profile  RateProfile
	Horizon  sim.Time
	Mix      netmodel.ClassMix
	Capacity netmodel.CapacityProfile
	Sessions *SessionModel
	// ProgramEnd truncates watch durations at the program boundary,
	// producing the Fig. 5b departure cliff. Zero disables it.
	ProgramEnd sim.Time
	// EndJitter spreads program-end departures over a short window so
	// the cliff is steep but not a single tick.
	EndJitter sim.Time
}

// Validate reports option errors.
func (o Options) Validate() error {
	if err := o.Profile.Validate(); err != nil {
		return err
	}
	if o.Horizon <= 0 {
		return fmt.Errorf("workload: horizon %v", o.Horizon)
	}
	if o.Sessions == nil {
		return fmt.Errorf("workload: nil session model")
	}
	return nil
}

// Generate materialises a scenario. Deterministic for a given RNG state.
func Generate(o Options, r *xrand.RNG) (Scenario, error) {
	if err := o.Validate(); err != nil {
		return Scenario{}, err
	}
	classSampler := o.Mix.Sampler()
	arrivals := Arrivals(o.Profile, o.Horizon, r)
	sc := Scenario{Horizon: o.Horizon, ProgramEnd: o.ProgramEnd}
	sc.Specs = make([]UserSpec, 0, len(arrivals))
	for i, at := range arrivals {
		class := netmodel.UserClass(classSampler.Draw(r))
		watch := o.Sessions.Duration(r)
		if o.ProgramEnd > 0 && at < o.ProgramEnd && at+watch > o.ProgramEnd {
			jitter := sim.Time(0)
			if o.EndJitter > 0 {
				jitter = sim.Time(r.Int63n(int64(o.EndJitter)))
			}
			watch = o.ProgramEnd - at + jitter
		}
		if watch < sim.Second {
			watch = sim.Second
		}
		sc.Specs = append(sc.Specs, UserSpec{
			UserID:   i + 1,
			At:       at,
			Endpoint: o.Capacity.Draw(class, r),
			Watch:    watch,
			Patience: o.Sessions.Patience(r),
		})
	}
	return sc, nil
}
