package coolstream_test

import (
	"fmt"

	"coolstream"
)

// Example runs a miniature broadcast and prints headline measurements.
// Runs are deterministic for a given seed at any GOMAXPROCS, so the
// output below doubles as a regression check on the whole pipeline.
func Example() {
	cfg := coolstream.SteadyConfig(0.2, 4*coolstream.Minute, 7)
	cfg.Params.ReportPeriod = 30 * coolstream.Second
	res, err := coolstream.Run(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("sessions joined: %d\n", res.JoinedSessions)
	fmt.Printf("sessions ready: %d\n", res.ReadySessions)
	fmt.Printf("continuity above 0.9: %v\n", res.Analysis.MeanContinuity() > 0.9)
	sub, ready, _ := res.Analysis.StartupDelays()
	fmt.Printf("subscription faster than ready: %v\n", sub.Median() < ready.Median())
	// Output:
	// sessions joined: 40
	// sessions ready: 33
	// continuity above 0.9: true
	// subscription faster than ready: true
}
