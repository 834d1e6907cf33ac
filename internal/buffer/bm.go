package buffer

import (
	"encoding/binary"
	"fmt"
)

// BufferMap is the 2K-tuple of §III-C: for each of the K sub-streams,
// the sequence number of the latest received block (Latest), and the
// subscription state towards the partner the map is sent to
// (Subscribed, true when the sender pulls that sub-stream from the
// receiving partner).
type BufferMap struct {
	Latest     []int64
	Subscribed []bool
}

// NewBufferMap allocates a zeroed buffer map for k sub-streams.
func NewBufferMap(k int) BufferMap {
	return BufferMap{Latest: make([]int64, k), Subscribed: make([]bool, k)}
}

// K returns the number of sub-streams described.
func (m BufferMap) K() int { return len(m.Latest) }

// Reset resizes the map to k sub-streams, reusing existing storage
// when possible so periodic BM refreshes need not allocate. Entries
// are left uninitialised: the caller must overwrite all k slots.
func (m *BufferMap) Reset(k int) {
	if cap(m.Latest) >= k && cap(m.Subscribed) >= k {
		m.Latest = m.Latest[:k]
		m.Subscribed = m.Subscribed[:k]
		return
	}
	m.Latest = make([]int64, k)
	m.Subscribed = make([]bool, k)
}

// Clone returns a deep copy.
func (m BufferMap) Clone() BufferMap {
	c := BufferMap{
		Latest:     append([]int64(nil), m.Latest...),
		Subscribed: append([]bool(nil), m.Subscribed...),
	}
	return c
}

// CopyFrom makes m a deep copy of src in m's own storage, which is
// replaced only when it is too small: a long-lived map tracks another
// without allocating.
func (m *BufferMap) CopyFrom(src BufferMap) {
	m.Reset(src.K())
	copy(m.Latest, src.Latest)
	copy(m.Subscribed, src.Subscribed)
}

// MaxLatest returns the largest Latest entry (used by Inequality (2)'s
// max over partners).
func (m BufferMap) MaxLatest() int64 {
	if len(m.Latest) == 0 {
		return 0
	}
	max := m.Latest[0]
	for _, v := range m.Latest[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Validate checks structural consistency.
func (m BufferMap) Validate() error {
	if len(m.Latest) == 0 {
		return fmt.Errorf("buffer: empty buffer map")
	}
	if len(m.Latest) != len(m.Subscribed) {
		return fmt.Errorf("buffer: buffer map K mismatch: %d latest vs %d subscribed",
			len(m.Latest), len(m.Subscribed))
	}
	return nil
}

// MarshalBinary encodes the map as:
//
//	uint16 K | K × int64 latest | ceil(K/8) subscription bitmap
//
// matching the compact wire form a real implementation would exchange
// every BM period.
func (m BufferMap) MarshalBinary() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	k := len(m.Latest)
	buf := make([]byte, 2+8*k+(k+7)/8)
	binary.BigEndian.PutUint16(buf[0:2], uint16(k))
	off := 2
	for _, v := range m.Latest {
		binary.BigEndian.PutUint64(buf[off:off+8], uint64(v))
		off += 8
	}
	for i, s := range m.Subscribed {
		if s {
			buf[off+i/8] |= 1 << (i % 8)
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes the MarshalBinary form.
func (m *BufferMap) UnmarshalBinary(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("buffer: buffer map truncated header")
	}
	k := int(binary.BigEndian.Uint16(data[0:2]))
	if k == 0 {
		return fmt.Errorf("buffer: buffer map K = 0")
	}
	want := 2 + 8*k + (k+7)/8
	if len(data) != want {
		return fmt.Errorf("buffer: buffer map length %d, want %d for K=%d", len(data), want, k)
	}
	m.Latest = make([]int64, k)
	m.Subscribed = make([]bool, k)
	off := 2
	for i := range m.Latest {
		m.Latest[i] = int64(binary.BigEndian.Uint64(data[off : off+8]))
		off += 8
	}
	for i := range m.Subscribed {
		m.Subscribed[i] = data[off+i/8]&(1<<(i%8)) != 0
	}
	// Reject set bits past lane K in the bitmap's last byte: the
	// encoder never produces them, so accepting them would give the
	// same map two wire forms.
	if tail := k % 8; tail != 0 && data[len(data)-1]&^byte(1<<tail-1) != 0 {
		return fmt.Errorf("buffer: buffer map bitmap sets bits past lane %d", k)
	}
	return nil
}
