package buffer

import (
	"testing"
	"testing/quick"

	"coolstream/internal/xrand"
)

func TestBufferMapRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		k := 1 + r.Intn(16)
		m := NewBufferMap(k)
		for i := 0; i < k; i++ {
			m.Latest[i] = r.Int63n(1 << 40)
			m.Subscribed[i] = r.Bool(0.5)
		}
		data, err := m.MarshalBinary()
		if err != nil {
			return false
		}
		var got BufferMap
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		if got.K() != k {
			return false
		}
		for i := 0; i < k; i++ {
			if got.Latest[i] != m.Latest[i] || got.Subscribed[i] != m.Subscribed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBufferMapNegativeLatestRoundTrip(t *testing.T) {
	m := NewBufferMap(2)
	m.Latest[0] = -1 // "nothing received yet"
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got BufferMap
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Latest[0] != -1 {
		t.Fatalf("negative latest decoded as %d", got.Latest[0])
	}
}

func TestBufferMapValidate(t *testing.T) {
	if (BufferMap{}).Validate() == nil {
		t.Fatal("empty map validated")
	}
	bad := BufferMap{Latest: make([]int64, 3), Subscribed: make([]bool, 2)}
	if bad.Validate() == nil {
		t.Fatal("mismatched map validated")
	}
	if _, err := bad.MarshalBinary(); err == nil {
		t.Fatal("mismatched map marshalled")
	}
}

func TestBufferMapUnmarshalErrors(t *testing.T) {
	var m BufferMap
	if err := m.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil data accepted")
	}
	if err := m.UnmarshalBinary([]byte{0, 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	good, _ := NewBufferMap(3).MarshalBinary()
	if err := m.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Fatal("truncated data accepted")
	}
}

func TestBufferMapMaxLatest(t *testing.T) {
	m := NewBufferMap(3)
	m.Latest = []int64{5, 42, 7}
	if m.MaxLatest() != 42 {
		t.Fatalf("MaxLatest = %d", m.MaxLatest())
	}
	if (BufferMap{}).MaxLatest() != 0 {
		t.Fatal("empty MaxLatest not 0")
	}
}

func TestBufferMapClone(t *testing.T) {
	m := NewBufferMap(2)
	m.Latest[0] = 9
	m.Subscribed[1] = true
	c := m.Clone()
	c.Latest[0] = 1
	c.Subscribed[1] = false
	if m.Latest[0] != 9 || !m.Subscribed[1] {
		t.Fatal("Clone shares storage with original")
	}
}

func TestBufferMapCopyFrom(t *testing.T) {
	src := NewBufferMap(3)
	src.Latest[1], src.Subscribed[2] = 7, true
	var dst BufferMap
	dst.CopyFrom(src)
	if dst.K() != 3 || dst.Latest[1] != 7 || !dst.Subscribed[2] {
		t.Fatalf("copy %v %v", dst.Latest, dst.Subscribed)
	}
	dst.Latest[1], dst.Subscribed[2] = 9, false
	if src.Latest[1] != 7 || !src.Subscribed[2] {
		t.Fatal("copy aliases its source")
	}
	// Storage that fits is kept: tracking another map costs nothing.
	first := &dst.Latest[0]
	if allocs := testing.AllocsPerRun(100, func() { dst.CopyFrom(src) }); allocs > 0 {
		t.Fatalf("CopyFrom into fitting storage allocates %.1f/op", allocs)
	}
	if &dst.Latest[0] != first || dst.Latest[1] != 7 {
		t.Fatal("CopyFrom replaced storage that fit")
	}
	narrow := NewBufferMap(1)
	dst.CopyFrom(narrow)
	if dst.K() != 1 || dst.Validate() != nil {
		t.Fatalf("copy of a narrower map has K %d", dst.K())
	}
}
