// Buffer-map deltas — the compact §III-C signalling the congestion
// -control literature asks for: instead of re-sending the full 2K-tuple
// every BM period, a sender transmits the per-lane change against the
// last map it put on this connection. TCP's in-order delivery makes the
// receiver's reconstructed map exactly the sender's last-sent map on a
// live connection, so a delta needs no base identifier beyond a small
// keyframe epoch: absolute keyframes (re)establish the base — on a new
// connection, periodically, and whenever the previous keyframe went
// unacknowledged — and relative deltas chain from the newest keyframe.
//
// The encoding is canonical: every BMDelta has exactly one legal byte
// form, so the fuzz invariant "accepted bytes re-marshal identically"
// holds for deltas just as it does for the legacy message types.
package protocol

import (
	"fmt"

	"coolstream/internal/buffer"
)

// MaxDeltaLanes bounds the lane count a BMDelta can describe. Full
// buffer maps carry a u16 K; deltas are the steady-state hot path and
// one byte of lane count is plenty for any real layout.
const MaxDeltaLanes = 255

// BMDelta is one compact buffer-map update.
//
// Absolute updates (keyframes) carry every lane's Latest value plus the
// full subscription bitmap and replace the receiver's state for this
// connection. Relative updates carry per-lane increments against the
// previous update on the same connection (0 = unchanged); Sub is nil
// when the subscription bitmap did not change.
type BMDelta struct {
	// Epoch identifies the keyframe a relative delta chains from. Each
	// keyframe bumps it (mod 256); a receiver drops relative deltas
	// whose epoch does not match its last applied keyframe.
	Epoch uint8
	// Absolute marks a keyframe: Lanes are absolute Latest values.
	Absolute bool
	// Lanes holds K entries: absolute values or per-lane increments.
	Lanes []int64
	// Sub is the absolute subscription bitmap (required on keyframes;
	// nil on relative deltas when unchanged).
	Sub []bool
}

// K returns the number of lanes described.
func (d BMDelta) K() int { return len(d.Lanes) }

// validate checks structural consistency (shared by the payload
// encoder, ApplyBMDelta and the Message.Validate dispatch).
func (d BMDelta) validate() error {
	if len(d.Lanes) == 0 || len(d.Lanes) > MaxDeltaLanes {
		return fmt.Errorf("protocol: bm-delta describes %d lanes", len(d.Lanes))
	}
	if d.Sub != nil && len(d.Sub) != len(d.Lanes) {
		return fmt.Errorf("protocol: bm-delta sub/lane mismatch: %d vs %d", len(d.Sub), len(d.Lanes))
	}
	if d.Absolute && d.Sub == nil {
		return fmt.Errorf("protocol: bm-delta keyframe without subscription bitmap")
	}
	return nil
}

// Delta payload flags.
const (
	bmdAbs     = 1 << 0 // Lanes are absolute values (keyframe)
	bmdSub     = 1 << 1 // subscription bitmap present
	bmdUniform = 1 << 2 // one increment applies to every lane (relative only)
	bmdKnown   = bmdAbs | bmdSub | bmdUniform
)

// lanesAllEqual reports whether every entry equals the first.
func lanesAllEqual(lanes []int64) bool {
	for _, v := range lanes[1:] {
		if v != lanes[0] {
			return false
		}
	}
	return true
}

// appendBMDeltaPayload appends the canonical delta payload:
//
//	u8 epoch | u8 flags | u8 k
//	ABS:      k × zigzag-varint absolute latest
//	UNIFORM:  one zigzag-varint increment applied to all lanes
//	else:     ceil(k/8) changed bitmap, then one zigzag-varint per set
//	          bit (increments; zero increments are never encoded)
//	SUB set:  ceil(k/8) subscription bitmap
//
// The relative form is chosen canonically: UNIFORM whenever all lane
// increments are equal (including the all-zero heartbeat), the bitmap
// form otherwise.
func appendBMDeltaPayload(dst []byte, d BMDelta) ([]byte, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	k := len(d.Lanes)
	var flags byte
	uniform := false
	if d.Absolute {
		flags |= bmdAbs
	} else if lanesAllEqual(d.Lanes) {
		uniform = true
		flags |= bmdUniform
	}
	if d.Sub != nil {
		flags |= bmdSub
	}
	dst = append(dst, d.Epoch, flags, byte(k))
	switch {
	case d.Absolute:
		for _, v := range d.Lanes {
			dst = appendZigzag(dst, v)
		}
	case uniform:
		dst = appendZigzag(dst, d.Lanes[0])
	default:
		nb := (k + 7) / 8
		bits := dst
		off := len(dst)
		for i := 0; i < nb; i++ {
			bits = append(bits, 0)
		}
		dst = bits
		for j, v := range d.Lanes {
			if v != 0 {
				dst[off+j/8] |= 1 << (j % 8)
			}
		}
		for _, v := range d.Lanes {
			if v != 0 {
				dst = appendZigzag(dst, v)
			}
		}
	}
	if d.Sub != nil {
		off := len(dst)
		for i := 0; i < (k+7)/8; i++ {
			dst = append(dst, 0)
		}
		for j, s := range d.Sub {
			if s {
				dst[off+j/8] |= 1 << (j % 8)
			}
		}
	}
	return dst, nil
}

// scanBMDeltaPayload decodes the canonical payload, rejecting every
// non-canonical form (overlong varints, zero increments in the bitmap
// form, a bitmap form whose increments are all equal, set bits beyond
// lane k). Lanes and Sub are drawn from sp; a delta without a bitmap
// leaves sp's in place for the next one that has it.
func scanBMDeltaPayload(s *scanner, sp *spares) (BMDelta, error) {
	var d BMDelta
	d.Epoch = s.u8("bm-delta epoch")
	flags := s.u8("bm-delta flags")
	k := int(s.u8("bm-delta lane count"))
	if s.err != nil {
		return d, s.err
	}
	if flags&^bmdKnown != 0 {
		return d, fmt.Errorf("protocol: bm-delta unknown flags %#x", flags)
	}
	if k == 0 {
		return d, fmt.Errorf("protocol: bm-delta with zero lanes")
	}
	d.Absolute = flags&bmdAbs != 0
	if d.Absolute && flags&bmdUniform != 0 {
		return d, fmt.Errorf("protocol: bm-delta keyframe marked uniform")
	}
	if d.Absolute && flags&bmdSub == 0 {
		return d, fmt.Errorf("protocol: bm-delta keyframe without subscription bitmap")
	}
	d.Lanes = take(&sp.lanes, k)
	switch {
	case d.Absolute:
		for j := range d.Lanes {
			d.Lanes[j] = s.zigzag("bm-delta lane")
		}
	case flags&bmdUniform != 0:
		v := s.zigzag("bm-delta increment")
		for j := range d.Lanes {
			d.Lanes[j] = v
		}
	default:
		nb := (k + 7) / 8
		bits := s.bytes(nb, "bm-delta changed bitmap")
		if s.err != nil {
			return d, s.err
		}
		if err := checkBitmapTail(bits, k, "changed"); err != nil {
			return d, err
		}
		for j := range d.Lanes {
			if bits[j/8]&(1<<(j%8)) != 0 {
				v := s.zigzag("bm-delta increment")
				if s.err == nil && v == 0 {
					return d, fmt.Errorf("protocol: bm-delta encodes a zero increment")
				}
				d.Lanes[j] = v
			} else {
				d.Lanes[j] = 0
			}
		}
		if s.err == nil && lanesAllEqual(d.Lanes) {
			return d, fmt.Errorf("protocol: non-canonical bm-delta (uniform increments in bitmap form)")
		}
	}
	if flags&bmdSub != 0 {
		nb := (k + 7) / 8
		bits := s.bytes(nb, "bm-delta subscription bitmap")
		if s.err != nil {
			return d, s.err
		}
		if err := checkBitmapTail(bits, k, "subscription"); err != nil {
			return d, err
		}
		d.Sub = take(&sp.sub, k)
		for j := range d.Sub {
			d.Sub[j] = bits[j/8]&(1<<(j%8)) != 0
		}
	}
	return d, s.err
}

// checkBitmapTail rejects set bits beyond lane k — they can never be
// produced by the encoder, so accepting them would break canonicality.
func checkBitmapTail(bits []byte, k int, what string) error {
	if tail := k % 8; tail != 0 {
		if bits[len(bits)-1]&^byte(1<<tail-1) != 0 {
			return fmt.Errorf("protocol: bm-delta %s bitmap sets bits past lane %d", what, k)
		}
	}
	return nil
}

// DiffBM builds the relative delta that takes prev to cur under the
// given keyframe epoch. Sub is carried only when the subscription
// bitmap changed. The result owns fresh storage.
func DiffBM(prev, cur buffer.BufferMap, epoch uint8) (BMDelta, error) {
	return DiffBMInto(nil, nil, prev, cur, epoch)
}

// DiffBMInto is DiffBM writing into caller-owned storage: the returned
// delta's Lanes reuse lanes' array and its Sub, when the bitmap changed,
// sub's (either is allocated when its capacity is short of K). A
// sender that keeps K-wide scratch diffs without allocating; the delta
// is valid until the scratch is written again.
func DiffBMInto(lanes []int64, sub []bool, prev, cur buffer.BufferMap, epoch uint8) (BMDelta, error) {
	if prev.K() != cur.K() || cur.K() == 0 {
		return BMDelta{}, fmt.Errorf("protocol: diff over K %d vs %d", prev.K(), cur.K())
	}
	d := BMDelta{Epoch: epoch, Lanes: lanes[:0]}
	for j, v := range cur.Latest {
		d.Lanes = append(d.Lanes, v-prev.Latest[j])
	}
	for j := range cur.Subscribed {
		if cur.Subscribed[j] != prev.Subscribed[j] {
			d.Sub = append(sub[:0], cur.Subscribed...)
			break
		}
	}
	return d, nil
}

// KeyBM builds the absolute keyframe delta for cur under epoch. The
// result owns fresh storage.
func KeyBM(cur buffer.BufferMap, epoch uint8) (BMDelta, error) {
	return KeyBMInto(nil, nil, cur, epoch)
}

// KeyBMInto is KeyBM writing into caller-owned storage, under
// DiffBMInto's contract.
func KeyBMInto(lanes []int64, sub []bool, cur buffer.BufferMap, epoch uint8) (BMDelta, error) {
	if cur.K() == 0 {
		return BMDelta{}, fmt.Errorf("protocol: keyframe over empty buffer map")
	}
	return BMDelta{
		Epoch:    epoch,
		Absolute: true,
		Lanes:    append(lanes[:0], cur.Latest...),
		Sub:      append(sub[:0], cur.Subscribed...),
	}, nil
}

// ApplyBMDelta reconstructs the sender's map: a keyframe replaces base
// outright (base may be empty); a relative delta requires base with the
// same K and returns base plus the increments. The result never aliases
// base or d.
func ApplyBMDelta(base buffer.BufferMap, d BMDelta) (buffer.BufferMap, error) {
	var nm buffer.BufferMap
	if !d.Absolute {
		nm = base.Clone()
	}
	if err := ApplyBMDeltaInto(&nm, d); err != nil {
		return buffer.BufferMap{}, err
	}
	return nm, nil
}

// ApplyBMDeltaInto is ApplyBMDelta in place: a keyframe overwrites *bm
// (reusing its storage when K lanes fit), a relative delta adds its
// increments to it. *bm is untouched when an error is returned, and
// never aliases d afterwards.
func ApplyBMDeltaInto(bm *buffer.BufferMap, d BMDelta) error {
	if err := d.validate(); err != nil {
		return err
	}
	if d.Absolute {
		bm.CopyFrom(buffer.BufferMap{Latest: d.Lanes, Subscribed: d.Sub})
		return nil
	}
	if bm.K() != len(d.Lanes) {
		return fmt.Errorf("protocol: delta over K %d applied to base K %d", len(d.Lanes), bm.K())
	}
	for j, inc := range d.Lanes {
		bm.Latest[j] += inc
	}
	if d.Sub != nil {
		copy(bm.Subscribed, d.Sub)
	}
	return nil
}
