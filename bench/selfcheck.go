package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"coolstream/bench/stat"
)

// contract is the part of BENCHMARK.json -selfcheck judges with.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	RunSeconds int `json:"run_seconds"`
}

// loadContract reads BENCHMARK.json from the repository root, whether
// the driver was started there or in bench.
func loadContract() (*contract, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var c contract
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &c, nil
	}
	return nil, firstErr
}

// resultLine is the object a pass prints on its last line.
type resultLine struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runChild runs one untraced pass in a fresh process, as the harness
// does, and parses its last line.
func runChild(workload string, seed uint64, seconds int) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if !r.Correct || r.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, r.Correct, r.Failed)
	}
	return &r, nil
}

// runSelfcheck runs n passes of every workload twice (seeds seed..
// seed+n-1 in both sets, so the two sets differ by host noise alone)
// and prints, per metric and workload, the two set medians, how much
// worse the second is, and each set's spread across seeds — both
// (max−min)/median and the quartile distance the harness uses —
// against the bound. It fails when a gap exceeds half the bound or a
// spread exceeds the bound; setup_s is judged on its gap only.
func runSelfcheck(n int, seed uint64, seconds int) int {
	if n < 5 {
		fmt.Fprintln(os.Stderr, "bench: -selfcheck needs at least 5 passes per set")
		return 2
	}
	c, err := loadContract()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
		return 2
	}
	printEnv(seed)
	// values[set][workload][metric] lists one value per pass.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for i := 0; i < n; i++ {
			for _, w := range workloads {
				r, err := runChild(w.name, seed+uint64(i), seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
					return 1
				}
				if values[set][w.name] == nil {
					values[set][w.name] = make(map[string][]float64)
				}
				for name, m := range r.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "# set %d pass %d/%d %s done\n", set+1, i+1, n, w.name)
			}
		}
	}

	fmt.Printf("%-13s %-19s %14s %14s %8s %8s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median_1", "median_2", "gap", "range_1", "range_2", "iqr_1", "iqr_2", "bound", "verdict")
	failed := false
	for _, w := range workloads {
		for _, m := range c.EndToEnd {
			a, b := values[0][w.name][m.Name], values[1][w.name][m.Name]
			ma, mb := stat.Median(a), stat.Median(b)
			// gap > 0 means the second set is worse.
			gap := 0.0
			if ma != 0 {
				gap = (mb - ma) / ma
				if m.Better == "higher" {
					gap = -gap
				}
			}
			ra, rb := stat.RangeShare(a), stat.RangeShare(b)
			var why []string
			if gap > m.Bound/2 {
				why = append(why, "gap over half the bound")
			}
			if m.Name != "setup_s" && (ra > m.Bound || rb > m.Bound) {
				why = append(why, "spread over the bound")
			}
			verdict := "ok"
			if len(why) > 0 {
				verdict, failed = "FAILED: "+strings.Join(why, ", "), true
			}
			fmt.Printf("%-13s %-19s %14.6g %14.6g %+8.4f %8.4f %8.4f %8.4f %8.4f %6.3f  %s\n",
				w.name, m.Name, ma, mb, gap, ra, rb, stat.IQRShare(a), stat.IQRShare(b), m.Bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}
