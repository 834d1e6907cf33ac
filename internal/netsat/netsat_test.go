package netsat

import (
	"testing"
	"time"

	"coolstream/internal/buffer"
)

// quickConfig keeps the harness affordable inside the test suite: a
// modest rate, two peers, sub-second window.
func quickConfig() Config {
	return Config{
		Peers:    2,
		Layout:   buffer.Layout{K: 4, RateBps: 1e6, BlockBytes: 800},
		BMPeriod: 25 * time.Millisecond,
		Duration: 500 * time.Millisecond,
		Settle:   300 * time.Millisecond,
	}
}

func TestRunMeasuresBatchedPlane(t *testing.T) {
	rep, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered == 0 || rep.WriteCalls == 0 || rep.BytesSent == 0 {
		t.Fatalf("empty measurement %+v", rep)
	}
	if rep.MinContinuity < 0.5 {
		t.Fatalf("continuity collapsed at 2 peers: %+v", rep)
	}
	if rep.BMFrames == 0 {
		t.Fatal("no BM traffic measured")
	}
	if rep.FanEncodes == 0 {
		t.Fatalf("the fan-out encoder was never used: %+v", rep)
	}
}

func TestSweepStopsAtMax(t *testing.T) {
	cfg := quickConfig()
	cfg.Duration = 300 * time.Millisecond
	cfg.Settle = 200 * time.Millisecond
	reps, sustainable, err := Sweep(cfg, 2, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) == 0 || sustainable < 2 {
		t.Fatalf("sweep: %d runs, sustainable %d", len(reps), sustainable)
	}
}
