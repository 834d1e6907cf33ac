package buffer

import (
	"testing"
	"testing/quick"

	"coolstream/internal/xrand"
)

func mustSync(t *testing.T, l Layout, start int64) *SyncBuffer {
	t.Helper()
	b, err := NewSyncBuffer(l, start)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSyncBufferPaperExample(t *testing.T) {
	// Fig. 2b: K=4; the combination stops awaiting sub-stream 4's
	// (index 3) block with sequence 8. We reproduce: lanes 0..2 have
	// blocks up to seq 8, lane 3 only to seq 7 — combined prefix must
	// stop exactly at global block Global(3, 8).
	l := Layout{K: 4, RateBps: 768e3, BlockBytes: 12000}
	b := mustSync(t, l, l.Global(0, 7)) // start at seq 7
	for seq := int64(7); seq <= 8; seq++ {
		for sub := 0; sub < 4; sub++ {
			if sub == 3 && seq == 8 {
				continue // the missing block
			}
			if _, err := b.Receive(sub, seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := b.Combined(), l.Global(3, 8); got != want {
		t.Fatalf("combined prefix %d, want %d (stop at missing 4th-lane block)", got, want)
	}
	// The missing block arrives; combination resumes through seq 8.
	n, err := b.Receive(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resumed combination combined %d blocks, want 1", n)
	}
	if got, want := b.Combined(), l.Global(0, 9); got != want {
		t.Fatalf("combined prefix %d, want %d", got, want)
	}
}

func TestSyncBufferInOrderSingleLane(t *testing.T) {
	l := Layout{K: 1, RateBps: 8000, BlockBytes: 1000}
	b := mustSync(t, l, 0)
	total := int64(0)
	for seq := int64(0); seq < 10; seq++ {
		n, err := b.Receive(0, seq)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 10 || b.Combined() != 10 {
		t.Fatalf("combined %d (total %d), want 10", b.Combined(), total)
	}
}

func TestSyncBufferDuplicatesAndStale(t *testing.T) {
	l := Layout{K: 2, RateBps: 16000, BlockBytes: 1000}
	b := mustSync(t, l, 0)
	b.Receive(0, 0)
	b.Receive(1, 0)
	if n, _ := b.Receive(0, 0); n != 0 {
		t.Fatal("stale receive combined blocks")
	}
	if n, _ := b.Receive(1, 5); n != 0 {
		t.Fatal("gap receive combined blocks")
	}
	if n, _ := b.Receive(1, 5); n != 0 {
		t.Fatal("duplicate ahead receive combined blocks")
	}
	if b.Pending(1) != 1 {
		t.Fatalf("pending = %d, want 1", b.Pending(1))
	}
}

func TestSyncBufferErrors(t *testing.T) {
	l := Layout{K: 2, RateBps: 16000, BlockBytes: 1000}
	b := mustSync(t, l, 0)
	if _, err := b.Receive(-1, 0); err == nil {
		t.Fatal("negative sub-stream accepted")
	}
	if _, err := b.Receive(2, 0); err == nil {
		t.Fatal("out-of-range sub-stream accepted")
	}
	if _, err := NewSyncBuffer(Layout{}, 0); err == nil {
		t.Fatal("invalid layout accepted")
	}
}

func TestSyncBufferStartAlignment(t *testing.T) {
	l := Layout{K: 4, RateBps: 768e3, BlockBytes: 12000}
	b := mustSync(t, l, 5) // not a multiple of K; rounds up to 8
	if b.Combined() != 8 {
		t.Fatalf("start alignment: combined = %d, want 8", b.Combined())
	}
	for sub := 0; sub < 4; sub++ {
		if b.Next(sub) != 2 {
			t.Fatalf("lane %d next = %d, want 2", sub, b.Next(sub))
		}
	}
	// Negative start clamps to zero.
	b2 := mustSync(t, l, -100)
	if b2.Combined() != 0 {
		t.Fatalf("negative start: combined = %d", b2.Combined())
	}
}

func TestSyncBufferLatestAndDeviation(t *testing.T) {
	l := Layout{K: 3, RateBps: 24000, BlockBytes: 1000}
	b := mustSync(t, l, 0)
	// Lane 0 receives seqs 0..4, lane 1 seq 0, lane 2 nothing.
	for seq := int64(0); seq < 5; seq++ {
		b.Receive(0, seq)
	}
	b.Receive(1, 0)
	if b.Latest(0) != 4 {
		t.Fatalf("Latest(0) = %d", b.Latest(0))
	}
	if b.Latest(2) != -1 {
		t.Fatalf("Latest(2) = %d, want -1 (nothing received)", b.Latest(2))
	}
}

func TestSyncBufferRandomArrivalCompleteness(t *testing.T) {
	// Property: any permutation of a complete block range combines fully.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		k := 1 + r.Intn(6)
		l := Layout{K: k, RateBps: 8000 * float64(k), BlockBytes: 1000}
		b, err := NewSyncBuffer(l, 0)
		if err != nil {
			return false
		}
		nSeq := int64(1 + r.Intn(20))
		type blk struct {
			sub int
			seq int64
		}
		var blocks []blk
		for sub := 0; sub < k; sub++ {
			for seq := int64(0); seq < nSeq; seq++ {
				blocks = append(blocks, blk{sub, seq})
			}
		}
		r.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		var total int64
		for _, bl := range blocks {
			n, err := b.Receive(bl.sub, bl.seq)
			if err != nil {
				return false
			}
			total += n
		}
		return total == nSeq*int64(k) && b.Combined() == nSeq*int64(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncBufferCombinedMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		l := Layout{K: 4, RateBps: 32000, BlockBytes: 1000}
		b, err := NewSyncBuffer(l, 0)
		if err != nil {
			return false
		}
		prev := b.Combined()
		for i := 0; i < 200; i++ {
			if _, err := b.Receive(r.Intn(4), int64(r.Intn(30))); err != nil {
				return false
			}
			if b.Combined() < prev {
				return false
			}
			prev = b.Combined()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
