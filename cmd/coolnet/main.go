// Command coolnet runs one live networked Coolstreaming node — the
// deployable data plane of internal/netpeer over real TCP, with the
// tracker of internal/netboot for discovery.
//
// The bootstrap role serves the binary tracker on -tcp; nodes reach it
// with -bootstrap host:port (a tcp:// prefix is accepted). A peer is a
// whole Coolstreaming node (Fig. 1): it joins through the tracker
// (§IV-A) and runs the adaptation monitor (§IV-B) and the membership
// manager for as long as it streams.
//
// A self-organising overlay on one machine (four terminals):
//
//	coolnet -role bootstrap -tcp 127.0.0.1:7002
//	coolnet -role source -id 0 -bootstrap 127.0.0.1:7002
//	coolnet -role peer -id 1 -bootstrap 127.0.0.1:7002 -duration 15s
//	coolnet -role peer -id 2 -bootstrap tcp://127.0.0.1:7002 -duration 15s
//
// A self-contained chaos run (tracker, source, and peers in one
// process, with kills, hung connections, and a tracker outage injected
// mid-stream) needs no other terminals:
//
//	coolnet -scenario chaos -peers 8 -kills 2 -zombies 2 -outage 1.5s
//
// It exits non-zero if any surviving peer fails to re-partner and
// recover per-lane progress inside the recovery window.
//
// A flash-crowd run (warm overlay, then a joiner burst several times
// its size, measured with the admission ladder off and on):
//
//	coolnet -scenario surge -surgejson BENCH_surge.json
//
// It exits non-zero unless the ladder-on run admits the crowd while
// protecting the established peers' continuity AND the ladder-off run
// demonstrably collapses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/netboot"
	"coolstream/internal/netchaos"
	"coolstream/internal/netpeer"
	"coolstream/internal/netsat"
	"coolstream/internal/netsurge"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coolnet:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		role     = flag.String("role", "peer", "bootstrap | source | peer")
		id       = flag.Int("id", 1, "node id (unique per overlay)")
		boot     = flag.String("bootstrap", "", "tracker address: host:port or tcp://host:port")
		tcpAddr  = flag.String("tcp", "127.0.0.1:7002", "tracker listen address (bootstrap role)")
		parentsN = flag.Int("maxparents", 3, "target partner count (peer role, chaos scenario)")
		upload   = flag.Float64("upload", 4, "upload capacity as a multiple of the stream rate (0 = unlimited)")
		rate     = flag.Float64("rate", 512e3, "stream rate in bits/s")
		k        = flag.Int("k", 4, "number of sub-streams")
		block    = flag.Int("block", 800, "block size in bytes")
		duration = flag.Duration("duration", 10*time.Second, "how long to stream (peer role)")

		scenario = flag.String("scenario", "", "self-contained scenario: chaos | saturate | surge")
		peers    = flag.Int("peers", 8, "chaos/saturate: number of peers")
		kills    = flag.Int("kills", 2, "chaos: abrupt peer kills mid-run")
		zombies  = flag.Int("zombies", 2, "chaos: hung connections injected mid-run")
		outage   = flag.Duration("outage", 1500*time.Millisecond, "chaos: tracker outage duration (0 = none)")
		recovery = flag.Duration("recovery", 4*time.Second, "chaos: recovery window after the faults")
		seed     = flag.Uint64("seed", 1, "chaos/surge: scenario seed")

		satWindow = flag.Duration("satwindow", 3*time.Second, "saturate: measured window")
		satSweep  = flag.Int("satsweep", 0, "saturate: sweep peer count up to this cap (0 = one run at -peers)")

		surgeWarm    = flag.Int("surgewarm", 0, "surge: established peers before the storm (0 = default 3)")
		surgeJoiners = flag.Int("surgejoiners", 0, "surge: joiner burst size (0 = default 4x warm)")
		surgeJSON    = flag.String("surgejson", "", "surge: write the off/on pair report to this JSON file")
	)
	flag.Parse()

	switch *scenario {
	case "chaos":
		return runChaos(*peers, *parentsN, *kills, *zombies, *outage, *recovery, *seed)
	case "saturate":
		return runSaturate(*peers, *satWindow, *satSweep)
	case "surge":
		return runSurge(*surgeWarm, *surgeJoiners, *seed, *surgeJSON)
	case "":
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}

	if *role == "bootstrap" {
		reg := netboot.NewRegistry(netboot.RegistryConfig{Seed: uint64(time.Now().UnixNano())})
		tracker := netboot.NewTCPServer(reg, netboot.TCPServerConfig{})
		bound, err := tracker.Listen(*tcpAddr)
		if err != nil {
			return err
		}
		defer tracker.Close()
		fmt.Printf("tracker listening on tcp://%s (%v leases); ctrl-c to stop\n", bound, reg.LeaseTTL())
		select {} // run until killed
	}

	// The tracker client outlives the node: a peer's Close announces its
	// departure through it.
	if *boot == "" {
		return fmt.Errorf("-role %s needs -bootstrap", *role)
	}
	bc, err := newBootClient(*boot)
	if err != nil {
		return err
	}
	defer bc.Close()

	layout := buffer.Layout{K: *k, RateBps: *rate, BlockBytes: *block}
	uploadBps := *upload * *rate
	if *upload == 0 {
		uploadBps = 0
	}
	cfg := netpeer.Config{
		ID:           int32(*id),
		Layout:       layout,
		UploadBps:    uploadBps,
		BMPeriod:     250 * time.Millisecond,
		BufferBlocks: 600,
		ReadyBlocks:  10,
	}
	node, err := netpeer.New(cfg)
	if err != nil {
		return err
	}
	defer node.Close()
	addr, err := node.Listen()
	if err != nil {
		return err
	}
	fmt.Printf("node %d (%s) listening on %s\n", *id, *role, addr)

	switch *role {
	case "source":
		if err := node.StartSource(); err != nil {
			return err
		}
		if err := bc.Register(int32(*id), addr); err != nil {
			return fmt.Errorf("bootstrap register: %w", err)
		}
		// The source runs no membership manager, so it keeps its own
		// tracker lease alive: every 10s, a third of the default lease.
		go func() {
			for range time.Tick(10 * time.Second) {
				bc.Register(int32(*id), addr)
			}
		}()
		fmt.Printf("streaming %.0f kbps in %d sub-streams (%.0f blocks/s); ctrl-c to stop\n",
			*rate/1e3, *k, layout.BlocksPerSecond())
		select {} // run until killed

	case "peer":
		st, err := node.Join(netpeer.JoinConfig{
			Boot: bc, SelfAddr: addr, Register: true, TargetPartners: *parentsN,
		})
		if err != nil {
			bc.Leave(int32(*id)) // Join registered us; no manager will deregister
			return err
		}
		fmt.Printf("joined: partners %v, first block after %v\n",
			node.Partners(), st.TimeToFirstBlock.Round(time.Millisecond))
		node.EnableAdaptation(netpeer.AdaptConfig{
			Ts: 10, Tp: 20, Ta: time.Second,
			Check: 250 * time.Millisecond,
			Seed:  uint64(*id),
		})
		if err := node.EnableMaintenance(netpeer.ManagerConfig{
			TargetPartners: *parentsN,
			Seed:           uint64(*id),
		}, bc); err != nil {
			return err
		}
		fmt.Printf("streaming %v...\n", *duration)
		time.Sleep(*duration)
		fmt.Printf("ready: %v  continuity: %.4f  latest: %d  combined: %d\n",
			node.Ready(), node.Continuity(), node.Latest(0), node.Combined())
		rec := node.Recovery()
		fmt.Printf("recovery: stale-teardowns=%d partners-replaced=%d rebootstraps=%d gossip-sent=%d\n",
			rec.StaleTeardowns, rec.PartnersReplaced, rec.Rebootstraps, rec.GossipSent)
		return nil

	default:
		return fmt.Errorf("unknown role %q", *role)
	}
}

// runChaos executes the self-contained chaos scenario and reports
// per-peer recovery, exiting non-zero when the overlay failed to heal.
func runChaos(peers, target, kills, zombies int, outage, recovery time.Duration, seed uint64) error {
	fmt.Printf("chaos: %d peers (target M=%d), %d kills, %d zombies, tracker outage %v\n",
		peers, target, kills, zombies, outage)
	rep, err := netchaos.Run(netchaos.Config{
		Peers:          peers,
		TargetPartners: target,
		Kills:          kills,
		Zombies:        zombies,
		BootOutage:     outage,
		RecoveryWindow: recovery,
		Seed:           seed,
		Logf: func(format string, args ...any) {
			fmt.Printf("chaos: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("chaos: killed %v; %d survivors; stale-teardowns=%d partners-replaced=%d rebootstraps=%d gossip-sent=%d\n",
		rep.Killed, len(rep.Survivors), rep.StaleTeardowns, rep.PartnersReplaced, rep.Rebootstraps, rep.GossipSent)
	if !rep.Recovered {
		return fmt.Errorf("overlay did not recover within %v", recovery)
	}
	fmt.Println("chaos: all survivors re-partnered with positive per-lane progress — recovered")
	return nil
}

// runSurge runs the flash-crowd storm twice — admission ladder off,
// then on — writes the pair report as JSON when asked, and exits
// non-zero unless the ladder demonstrably changes the outcome: joins
// succeed and the established swarm keeps its continuity with the
// ladder on, and the same storm drags the established swarm down with
// it off.
func runSurge(warm, joiners int, seed uint64, jsonPath string) error {
	cfg := netsurge.Config{
		Warm: warm, Joiners: joiners, Seed: seed,
		Logf: func(format string, args ...any) {
			fmt.Printf("surge: "+format+"\n", args...)
		},
	}
	pair, err := netsurge.RunPair(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("surge: ladder off: join success %.2f, established min CI %.3f\n",
		pair.Off.JoinSuccess, pair.Off.EstablishedMinContinuity)
	fmt.Printf("surge: ladder on:  join success %.2f, established min CI %.3f, retries p90=%d, ttfb p90=%.0fms\n",
		pair.On.JoinSuccess, pair.On.EstablishedMinContinuity,
		pair.On.RetriesP90, pair.On.TTFBP90Ms)
	if jsonPath != "" {
		buf, err := json.MarshalIndent(pair, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("surge: pair report written to %s\n", jsonPath)
	}
	switch {
	case pair.On.JoinSuccess < 0.95:
		return fmt.Errorf("ladder on: join success %.2f < 0.95", pair.On.JoinSuccess)
	case pair.On.EstablishedMinContinuity < 0.95:
		return fmt.Errorf("ladder on: established min continuity %.3f < 0.95",
			pair.On.EstablishedMinContinuity)
	case pair.Off.EstablishedMinContinuity > 0.8:
		return fmt.Errorf("ladder off: established min continuity %.3f > 0.8 — storm did not bite",
			pair.Off.EstablishedMinContinuity)
	}
	fmt.Println("surge: crowd admitted, established swarm protected, unprotected run collapsed — pass")
	return nil
}

// runSaturate measures the live data plane on a star overlay: write
// syscalls and bytes per delivered block, BM signalling bytes per peer
// and delivered continuity. With -satsweep N it instead doubles the
// peer count until continuity collapses, reporting the sustainable
// population.
func runSaturate(peers int, window time.Duration, sweepMax int) error {
	cfg := netsat.Config{
		Peers:    peers,
		Duration: window,
		Logf: func(format string, args ...any) {
			fmt.Printf("saturate: "+format+"\n", args...)
		},
	}
	if sweepMax > 0 {
		reps, sustainable, err := netsat.Sweep(cfg, peers, sweepMax, 0.9)
		if err != nil {
			return err
		}
		last := reps[len(reps)-1]
		fmt.Printf("saturate: sustainable peers %d (last run: %d peers, min CI %.3f)\n",
			sustainable, last.Peers, last.MinContinuity)
		return nil
	}
	rep, err := netsat.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("\n%-22s %14d\n", "delivered blocks", rep.Delivered)
	fmt.Printf("%-22s %14d\n", "write syscalls", rep.WriteCalls)
	fmt.Printf("%-22s %14.3f\n", "writes / block", rep.WritesPerBlock)
	fmt.Printf("%-22s %14.1f\n", "bytes / block", rep.BytesPerBlock)
	fmt.Printf("%-22s %14.0f\n", "BM bytes / peer / s", rep.BMBytesPerPeerSec)
	fmt.Printf("%-22s %14.3f\n", "min continuity", rep.MinContinuity)
	fmt.Printf("%-22s %14.3f\n", "mean continuity", rep.MeanContinuity)
	fmt.Printf("%-22s %14d\n\n", "fan-out shared frames", rep.FanShared)
	return nil
}

// newBootClient builds the tracker client from the -bootstrap value: a
// bare host:port or tcp://host:port. Any other scheme is an error —
// there is one tracker protocol.
func newBootClient(u string) (*netboot.TCPClient, error) {
	addr := strings.TrimPrefix(u, "tcp://")
	if strings.Contains(addr, "://") {
		return nil, fmt.Errorf("-bootstrap %q: the tracker speaks the binary TCP protocol only; use host:port or tcp://host:port", u)
	}
	return netboot.NewTCPClient(addr), nil
}
