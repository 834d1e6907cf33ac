package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/protocol"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads VmHWM, the process's resident high-water mark
// (0 where /proc is not available).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// procRows reports the process-wide rows of the traced pass. Host-time
// and RSS numbers swing with the host between identical runs (README:
// "What is not gated"), which is why they live here and carry no bound.
func (p *pass) procRows() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.layer("proc.peak_rss_mb", peakRSSMiB(), "MiB")
	p.layer("proc.cpu_s", cpuSeconds(), "s")
	p.layer("proc.gc_cycles", float64(m.NumGC), "count")
	p.layer("proc.gc_pause_ms", float64(m.PauseTotalNs)/1e6, "ms")
}

// probeFrames is the size of the fixed frame mix the codec probe
// encodes and decodes: block pushes with one buffer-map delta per
// eight, the proportion live_fanout's source sends.
const (
	probeFrames = 20000
	probeBlocks = 200000
)

// codecProbes times the wire codec and the sync buffer on a fixed
// input, the same on every workload: the per-frame and per-block floor
// under both live workloads' allocs_per_op and CPU cost.
func (p *pass) codecProbes() error {
	layout := buffer.Layout{K: 16, RateBps: 8e6, BlockBytes: 1250}
	payload := make([]byte, layout.BlockBytes)
	prev, cur := buffer.NewBufferMap(layout.K), buffer.NewBufferMap(layout.K)
	for j := range cur.Latest {
		prev.Latest[j], cur.Latest[j] = 1000, 1000+int64(j%3)
	}
	delta, err := protocol.DiffBM(prev, cur, 1)
	if err != nil {
		return err
	}
	frame := func(i int) protocol.Message {
		if i%8 == 7 {
			return protocol.Message{Type: protocol.TypeBMDelta, From: 0, To: 1, Delta: delta}
		}
		return protocol.Message{
			Type: protocol.TypeBlockPush, From: 0, To: -1,
			SubStream: int16(i % layout.K), StartSeq: int64(i / layout.K), Payload: payload,
		}
	}

	// Encode the whole mix into one buffer, sized beforehand so the
	// timing is the codec's and not the buffer's growth; the decoder
	// reads it back.
	sp := p.tr.begin("protocol.AppendFrame", p.root)
	wire := make([]byte, 0, probeFrames*(layout.BlockBytes+64))
	m0 := readMem()
	t0 := time.Now()
	for i := 0; i < probeFrames; i++ {
		if wire, err = protocol.AppendFrame(wire, frame(i)); err != nil {
			return err
		}
	}
	encNs := float64(time.Since(t0).Nanoseconds())
	p.tr.end(sp)

	sp = p.tr.begin("protocol.FrameReader.ReadInto", p.root)
	fr := protocol.NewFrameReader(bytes.NewReader(wire))
	var msg protocol.Message
	t0 = time.Now()
	for i := 0; i < probeFrames; i++ {
		if err := fr.ReadInto(&msg); err != nil {
			return err
		}
	}
	decNs := float64(time.Since(t0).Nanoseconds())
	p.tr.end(sp)
	allocs := readMem().since(m0).mallocs

	sp = p.tr.begin("buffer.SyncBuffer.Receive", p.root)
	sb, err := buffer.NewSyncBuffer(layout, 0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for g := int64(0); g < probeBlocks; g++ {
		sb.Receive(layout.SubStream(g), layout.Seq(g))
	}
	recvNs := float64(time.Since(t0).Nanoseconds())
	p.tr.end(sp)

	p.layer("protocol.encode_ns_per_frame", encNs/probeFrames, "ns")
	p.layer("protocol.decode_ns_per_frame", decNs/probeFrames, "ns")
	p.layer("protocol.allocs_per_frame", float64(allocs)/(2*probeFrames), "1/op")
	p.layer("buffer.receive_ns_per_block", recvNs/probeBlocks, "ns")
	return nil
}
