// Livenetwork runs the Coolstreaming data plane over real TCP on
// localhost: a source, two relays, and four leaf peers exchange
// partnership handshakes, buffer maps and block pushes through the
// wire protocol, streaming for a few wall-clock seconds. This is the
// deployable counterpart of the simulator — same buffers, same codec,
// real sockets.
//
// Act two demonstrates self-healing: every node registers with the
// bootstrap tracker, the leaves run the membership manager and the
// §IV-B adaptation monitor, and then relay-1 dies abruptly (no Leave
// frames, conns just drop). The leaves detect the loss, re-partner via
// mCache gossip and tracker candidates, and re-subscribe the orphaned
// lanes — continuity survives the death of half the relay tier.
package main

import (
	"fmt"
	"log"
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/netboot"
	"coolstream/internal/netpeer"
)

func main() {
	// 512 kbps in 4 sub-streams of 800-byte blocks: 80 blocks/s.
	layout := buffer.Layout{K: 4, RateBps: 512e3, BlockBytes: 800}
	cfg := func(id int32, upload float64) netpeer.Config {
		return netpeer.Config{
			ID: id, Layout: layout, UploadBps: upload,
			BMPeriod: 250 * time.Millisecond, BufferBlocks: 400, ReadyBlocks: 10,
		}
	}

	// Bootstrap tracker for discovery and re-partnering.
	tracker := netboot.NewTCPServer(netboot.NewRegistry(netboot.RegistryConfig{Seed: 1}), netboot.TCPServerConfig{})
	bootAddr, err := tracker.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer tracker.Close()
	fmt.Printf("bootstrap tracker at tcp://%s\n", bootAddr)
	client := func() *netboot.TCPClient {
		c := netboot.NewTCPClient(bootAddr)
		c.SetTimeout(2 * time.Second)
		return c
	}

	source, err := netpeer.New(cfg(0, 0)) // unlimited origin uplink
	if err != nil {
		log.Fatal(err)
	}
	defer source.Close()
	srcAddr, err := source.Listen()
	if err != nil {
		log.Fatal(err)
	}
	if err := source.StartSource(); err != nil {
		log.Fatal(err)
	}
	srcBoot := client()
	defer srcBoot.Close()
	if err := srcBoot.Register(0, srcAddr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("source live at %s (%.0f blocks/s)\n", srcAddr, layout.BlocksPerSecond())
	time.Sleep(400 * time.Millisecond)

	// Two relays with 4R uplinks subscribe to the source.
	var relays []*netpeer.Node
	var relayAddrs []string
	for id := int32(1); id <= 2; id++ {
		r, err := netpeer.New(cfg(id, 4*layout.RateBps))
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		addr, err := r.Listen()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := r.Connect(srcAddr); err != nil {
			log.Fatal(err)
		}
		rb := client()
		defer rb.Close()
		if err := rb.Register(id, addr); err != nil {
			log.Fatal(err)
		}
		start := source.Latest(0) - 3
		if start < 0 {
			start = 0
		}
		if err := r.InitBuffers(start); err != nil {
			log.Fatal(err)
		}
		for j := 0; j < layout.K; j++ {
			if err := r.SubscribeTracked(0, j, start); err != nil {
				log.Fatal(err)
			}
		}
		relays = append(relays, r)
		relayAddrs = append(relayAddrs, addr)
	}
	time.Sleep(600 * time.Millisecond)

	// Four leaves split across the relays, sub-streams striped across
	// both (the mesh property: different lanes from different parents).
	// Each leaf runs the self-healing membership manager and the
	// adaptation monitor, so it can survive losing a relay.
	var leaves []*netpeer.Node
	for id := int32(10); id < 14; id++ {
		l, err := netpeer.New(cfg(id, 2*layout.RateBps))
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		leafAddr, err := l.Listen()
		if err != nil {
			log.Fatal(err)
		}
		bc := client()
		defer bc.Close()
		if err := bc.Register(id, leafAddr); err != nil {
			log.Fatal(err)
		}
		if err := l.EnableMaintenance(netpeer.ManagerConfig{
			TargetPartners: 2,
			Stale:          1200 * time.Millisecond,
			Interval:       200 * time.Millisecond,
			Seed:           uint64(id),
		}, bc); err != nil {
			log.Fatal(err)
		}
		for _, addr := range relayAddrs {
			if _, err := l.Connect(addr); err != nil {
				log.Fatal(err)
			}
		}
		start := relays[0].Latest(0) - 3
		if start < 0 {
			start = 0
		}
		if err := l.InitBuffers(start); err != nil {
			log.Fatal(err)
		}
		for j := 0; j < layout.K; j++ {
			parent := int32(1 + j%2) // stripe lanes across the relays
			if err := l.SubscribeTracked(parent, j, start); err != nil {
				log.Fatal(err)
			}
		}
		l.EnableAdaptation(netpeer.AdaptConfig{
			Ts: 10, Tp: 20, Ta: 500 * time.Millisecond,
			Check: 200 * time.Millisecond, Seed: uint64(id),
		})
		leaves = append(leaves, l)
	}

	fmt.Println("streaming for 4 seconds across 7 real TCP nodes...")
	time.Sleep(4 * time.Second)

	fmt.Printf("\n%-8s %-8s %-12s %-10s\n", "node", "ready", "continuity", "latest[0]")
	for i, r := range relays {
		fmt.Printf("relay-%d  %-8v %-12.3f %d\n", i+1, r.Ready(), r.Continuity(), r.Latest(0))
	}
	for i, l := range leaves {
		fmt.Printf("leaf-%d   %-8v %-12.3f %d\n", i+1, l.Ready(), l.Continuity(), l.Latest(0))
	}

	// --- Act two: relay-1 dies abruptly (no Leave, conns just drop).
	fmt.Println("\nkilling relay-1 abruptly; leaves must re-partner and re-subscribe...")
	relays[0].Abort()
	time.Sleep(3 * time.Second)

	fmt.Printf("\n%-8s %-10s %-12s %-10s %s\n", "node", "partners", "continuity", "latest[0]", "recovery")
	for i, l := range leaves {
		rec := l.Recovery()
		fmt.Printf("leaf-%d   %-10d %-12.3f %-10d replaced=%d stale=%d gossip=%d\n",
			i+1, len(l.Partners()), l.Continuity(), l.Latest(0),
			rec.PartnersReplaced, rec.StaleTeardowns, rec.GossipSent)
	}
	fmt.Printf("\nlive edge: %d blocks per lane\n", source.Latest(0))
}
