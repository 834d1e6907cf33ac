package buffer

import "fmt"

// SyncBuffer is the synchronization buffer of Fig. 2a: per-sub-stream
// queues of received blocks that are combined into a single ordered
// stream once every sub-stream has delivered the block with the next
// expected sequence number. The combination process of Fig. 2b stops
// at the first sub-stream whose next block has not arrived.
//
// The buffer tracks, per sub-stream, the set of received sequence
// numbers above the combined prefix. Blocks may arrive out of order
// within a sub-stream (retransmissions after a parent switch), so each
// lane keeps a small ahead-of-order set.
type SyncBuffer struct {
	layout Layout
	// next[i] is the sequence number the combiner expects next from
	// sub-stream i.
	next []int64
	// ahead[i] holds sequence numbers received out of order, > next[i].
	ahead []map[int64]struct{}
	// combined is the global index of the next block to be handed to
	// the cache buffer (all blocks < combined are combined).
	combined int64
}

// NewSyncBuffer creates a synchronization buffer whose combination
// starts at global block start (typically the T_p-shifted join point).
// start is rounded up to a multiple of K so each lane starts at a
// whole sequence number.
func NewSyncBuffer(layout Layout, start int64) (*SyncBuffer, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	k := int64(layout.K)
	if start < 0 {
		start = 0
	}
	if rem := start % k; rem != 0 {
		start += k - rem
	}
	b := &SyncBuffer{
		layout: layout,
		next:   make([]int64, layout.K),
		ahead:  make([]map[int64]struct{}, layout.K),
	}
	seq := start / k
	for i := range b.next {
		b.next[i] = seq
		b.ahead[i] = make(map[int64]struct{})
	}
	b.combined = start
	return b, nil
}

// Receive records the arrival of block seq on sub-stream sub, then
// runs the combination process. It returns the number of global blocks
// newly combined (possibly 0). Duplicate and stale arrivals are
// ignored. It returns an error for an out-of-range sub-stream.
func (b *SyncBuffer) Receive(sub int, seq int64) (int64, error) {
	if sub < 0 || sub >= b.layout.K {
		return 0, fmt.Errorf("buffer: sub-stream %d out of range [0,%d)", sub, b.layout.K)
	}
	if seq < b.next[sub] {
		return 0, nil // stale or duplicate
	}
	if _, dup := b.ahead[sub][seq]; dup {
		return 0, nil
	}
	b.ahead[sub][seq] = struct{}{}
	return b.combine(), nil
}

// combine advances the combined prefix: the combiner walks global
// block order, consuming next[sub] from each lane in turn, stopping at
// the first lane whose expected block is missing (Fig. 2b).
func (b *SyncBuffer) combine() int64 {
	var n int64
	for {
		sub := b.layout.SubStream(b.combined)
		seq := b.layout.Seq(b.combined)
		if seq != b.next[sub] {
			// Internal invariant: the combined cursor and the lane
			// cursor always agree.
			panic(fmt.Sprintf("buffer: combine cursor desync: sub %d seq %d next %d", sub, seq, b.next[sub]))
		}
		if _, ok := b.ahead[sub][seq]; !ok {
			return n
		}
		delete(b.ahead[sub], seq)
		b.next[sub]++
		b.combined++
		n++
	}
}

// Combined returns the global index one past the last combined block.
func (b *SyncBuffer) Combined() int64 { return b.combined }

// Next returns the sequence number expected next on sub-stream sub.
func (b *SyncBuffer) Next(sub int) int64 { return b.next[sub] }

// Latest returns the highest received sequence number on sub-stream
// sub (the H value advertised in buffer maps), or next-1 when nothing
// is ahead of the combined prefix.
func (b *SyncBuffer) Latest(sub int) int64 {
	latest := b.next[sub] - 1
	for seq := range b.ahead[sub] {
		if seq > latest {
			latest = seq
		}
	}
	return latest
}

// Pending returns how many out-of-order blocks sub-stream sub holds.
func (b *SyncBuffer) Pending(sub int) int { return len(b.ahead[sub]) }
