package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"coolstream/internal/sim"
)

// tinySizes shrinks every workload so all four run in a few seconds:
// the smoke test exercises the driver's code paths, not the numbers.
func tinySizes() sizes {
	sz := fullSizes(1)
	sz.settle = 20 * time.Millisecond
	sz.setupRepeats = 1
	sz.dayLength, sz.dayRate, sz.dayServers = 6*sim.Minute, 1, 4
	sz.steadyPeers, sz.steadyWarm, sz.steadyTicks = 2000, 2, 5
	sz.window, sz.subWindows = time.Second, 5
	sz.swarmPeers, sz.swarmChurnEvery = 3, 400*time.Millisecond
	sz.fanoutPeers = 2
	sz.swarm.readyBlocks, sz.fanout.readyBlocks = 10, 10
	return sz
}

// TestSmoke runs every workload once untraced and once traced at tiny
// sizes with a fixed seed and requires what the harness requires of a
// run: every listed metric present with its unit, finite, end-to-end
// values non-zero, no failed check, a span file on the traced pass.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/plain"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				out := t.TempDir()
				p := newPass(w.name, 7, tinySizes(), traced, out)
				if err := p.execute(w.run); err != nil {
					t.Fatal(err)
				}
				for _, c := range p.checks {
					if !c.ok {
						t.Errorf("check %s failed: %s", c.name, c.detail)
					}
				}
				if !p.correct() || p.attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", p.correct(), p.attempted, p.failed)
				}
				want := len(endToEnd)
				if traced {
					want = len(perLayer)
				}
				if len(p.rows) != want {
					t.Errorf("%d metrics, want %d", len(p.rows), want)
				}
				for _, r := range p.rows {
					if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
						t.Errorf("%s = %v", r.name, r.value)
					}
					if !traced && r.value == 0 {
						t.Errorf("end-to-end metric %s is 0", r.name)
					}
				}
				if traced {
					data, err := os.ReadFile(out + "/" + w.name + ".trace.json")
					if err != nil {
						t.Fatal(err)
					}
					var doc struct {
						Spans []span `json:"spans"`
					}
					if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) < 2 {
						t.Errorf("span file: %d spans, err %v", len(doc.Spans), err)
					}
					for _, s := range doc.Spans[1:] {
						if s.Parent < 0 || s.EndNs < s.StartNs {
							t.Errorf("span %+v: no parent or ends before it starts", s)
						}
					}
				}
			})
		}
	}
}

// TestContractMatchesDriver keeps BENCHMARK.json and the driver's
// metric lists the same document.
func TestContractMatchesDriver(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, driver default %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, c.Workloads[i].Name, w.name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the driver", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := c.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end_to_end[%d]: %s [%s] vs %s [%s]", i, got.Name, got.Unit, m.name, m.unit)
		}
		if got.Bound <= 0 || got.Bound > 0.25 || (got.Better != "lower" && got.Better != "higher") {
			t.Errorf("end_to_end[%d] %s: bound %v better %q", i, got.Name, got.Bound, got.Better)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the driver", len(c.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := c.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per_layer[%d]: %s [%s] vs %s [%s]", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}
