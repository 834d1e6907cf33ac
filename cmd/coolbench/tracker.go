// Tracker load harness (-tracker): drives register/renew + candidates
// traffic against the tracker and reports ops/min —
//
//   - sharded: the production netboot.Registry called in-process;
//   - tcp: the same registry behind the binary wire protocol,
//     end-to-end over a loopback socket with one TCPClient per worker.
//
// Each worker alternates a register (renewal of its own ID block) with
// a candidates query — the tracker's two hot operations. The acceptance
// bar for this harness is ≥1M combined ops/min on the sharded build.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"coolstream/internal/netboot"
)

// trackerOps is the operation surface the load workers drive; the two
// modes adapt onto it.
type trackerOps interface {
	register(id int32, addr string) error
	candidates(n int, exclude int32) (int, error)
}

// shardedOps calls the production registry in-process.
type shardedOps struct{ reg *netboot.Registry }

func (s shardedOps) register(id int32, addr string) error {
	_, err := s.reg.Register(id, addr, "")
	return err
}

func (s shardedOps) candidates(n int, exclude int32) (int, error) {
	return len(s.reg.Candidates(n, exclude)), nil
}

// tcpOps drives one TCPClient (per worker) against a live TCPServer.
type tcpOps struct{ c *netboot.TCPClient }

func (t tcpOps) register(id int32, addr string) error { return t.c.Register(id, addr) }

func (t tcpOps) candidates(n int, exclude int32) (int, error) {
	out, err := t.c.Candidates(n, exclude)
	return len(out), err
}

// trackerBenchResult is one mode's measurement, serialised into
// BENCH_tracker.json.
type trackerBenchResult struct {
	Mode         string  `json:"mode"`
	Workers      int     `json:"workers"`
	Peers        int     `json:"peers"`
	DurationSec  float64 `json:"duration_sec"`
	RegisterOps  int64   `json:"register_ops"`
	CandidateOps int64   `json:"candidate_ops"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	OpsPerMin    float64 `json:"ops_per_min"`
}

// runTrackerBench measures one build: preload `peers` registrations,
// then `workers` goroutines alternate register-renewals (their own ID
// block) with candidates queries for `dur`.
func runTrackerBench(mode string, dur time.Duration, peers, workers int,
	mk func(worker int) trackerOps) (trackerBenchResult, error) {

	pre := mk(0)
	for id := int32(0); id < int32(peers); id++ {
		if err := pre.register(id, "10.0.0.1:9000"); err != nil {
			return trackerBenchResult{}, fmt.Errorf("preload: %w", err)
		}
	}

	var regOps, candOps atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		ops := mk(w + 1)
		myID := int32(w % peers)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if err := ops.register(myID, "10.0.0.1:9000"); err != nil {
					errCh <- err
					return
				}
				regOps.Add(1)
				if _, err := ops.candidates(10, myID); err != nil {
					errCh <- err
					return
				}
				candOps.Add(1)
			}
		}()
	}
	start := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	select {
	case err := <-errCh:
		return trackerBenchResult{}, fmt.Errorf("%s worker: %w", mode, err)
	default:
	}

	total := regOps.Load() + candOps.Load()
	return trackerBenchResult{
		Mode:         mode,
		Workers:      workers,
		Peers:        peers,
		DurationSec:  elapsed,
		RegisterOps:  regOps.Load(),
		CandidateOps: candOps.Load(),
		OpsPerSec:    float64(total) / elapsed,
		OpsPerMin:    float64(total) / elapsed * 60,
	}, nil
}

// trackerBench runs both modes and writes/prints the results.
func trackerBench(dur time.Duration, peers, workers int, jsonPath string) error {
	if peers <= 0 || workers <= 0 {
		return fmt.Errorf("tracker bench: peers %d workers %d", peers, workers)
	}
	// Production sharded registry, in-process.
	reg := netboot.NewRegistry(netboot.RegistryConfig{Seed: 1})
	sharded, err := runTrackerBench("sharded", dur, peers, workers,
		func(int) trackerOps { return shardedOps{reg} })
	if err != nil {
		return err
	}

	// Production registry behind the binary protocol, over loopback.
	// MaxPerOwner must stay unbounded here: every client shares the
	// loopback IP.
	srv := netboot.NewTCPServer(netboot.NewRegistry(netboot.RegistryConfig{Seed: 2}), netboot.TCPServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	var clients []*netboot.TCPClient
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	tcp, err := runTrackerBench("tcp", dur, peers, workers, func(int) trackerOps {
		c := netboot.NewTCPClient(addr)
		clients = append(clients, c)
		return tcpOps{c}
	})
	if err != nil {
		return err
	}
	results := []trackerBenchResult{sharded, tcp}

	fmt.Printf("# tracker load: %d peers, %d workers, %v per mode\n", peers, workers, dur)
	fmt.Printf("%-10s %12s %12s %14s %16s\n", "mode", "register", "candidates", "ops/sec", "ops/min")
	for _, r := range results {
		fmt.Printf("%-10s %12d %12d %14.0f %16.0f\n",
			r.Mode, r.RegisterOps, r.CandidateOps, r.OpsPerSec, r.OpsPerMin)
	}

	var out io.Writer = os.Stdout
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
