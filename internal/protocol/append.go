// The wire codec: append-style encoding into caller-owned buffers and
// an offset-scanning decoder that reuses the target Message's slices.
// This is the only encoder/decoder pair outside tests; the allocating
// binary.Write implementation it replaced survives as the differential
// oracle in codec_oracle_test.go, which holds AppendMessage to
// Marshal's bytes and DecodeMessage to Unmarshal's accept set.
//
// Layout (big endian):
//
//	u8  type
//	i32 from
//	i32 to
//	then type-specific payload:
//	  mcache-request : i16 want
//	  mcache-reply   : u16 n, n × (i32 id, u8 class, i64 joinedAt,
//	                   i16 partners, u16 addrLen, addr bytes)
//	  partner-reject : u16 n, n × entry (alternate candidates; same
//	                   entry layout as mcache-reply, n may be 0)
//	  partner-request: u16 addrLen, addr bytes (advertised listener)
//	  bm-exchange    : u16 len, BufferMap.MarshalBinary bytes
//	  subscribe      : i16 substream, i64 startSeq
//	  unsubscribe    : i16 substream
//	  block-push     : i16 substream, i64 seq, u32 len, payload bytes
//	  others         : empty
//
// The compact types introduced with BM deltas (TypeBMDelta, TypeBMAck)
// instead carry From/To as zigzag varints: these are the
// per-BM-period steady-state messages, and at typical peer IDs the
// varint header is 3 bytes where the fixed one is 9.
package protocol

import (
	"fmt"

	"coolstream/internal/buffer"
	"coolstream/internal/netmodel"
)

// ---- append helpers -------------------------------------------------

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendZigzag appends v as a zigzag-mapped LEB128 varint: small
// magnitudes of either sign stay short (0→1 byte, ±1..63→1 byte).
func appendZigzag(dst []byte, v int64) []byte {
	u := uint64(v)<<1 ^ uint64(v>>63)
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

// compactHeader reports whether t uses the varint From/To header.
func compactHeader(t MsgType) bool { return t == TypeBMDelta || t == TypeBMAck }

// AppendMessage appends m's canonical encoding to dst and returns the
// extended slice. It validates first, so malformed messages never
// reach the wire.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	dst = append(dst, byte(m.Type))
	if compactHeader(m.Type) {
		dst = appendZigzag(dst, int64(m.From))
		dst = appendZigzag(dst, int64(m.To))
		if m.Type == TypeBMAck {
			return append(dst, m.AckEpoch), nil
		}
		return appendBMDeltaPayload(dst, m.Delta)
	}
	dst = appendU32(dst, uint32(m.From))
	dst = appendU32(dst, uint32(m.To))
	switch m.Type {
	case TypeMCacheRequest:
		dst = appendU16(dst, uint16(m.Want))
	case TypeMCacheReply, TypePartnerReject:
		if len(m.Entries) > 0xffff {
			return nil, fmt.Errorf("protocol: %d entries exceed reply limit", len(m.Entries))
		}
		dst = appendU16(dst, uint16(len(m.Entries)))
		for _, e := range m.Entries {
			dst = appendU32(dst, uint32(e.ID))
			dst = append(dst, byte(e.Class))
			dst = appendU64(dst, uint64(e.JoinedAtMs))
			dst = appendU16(dst, uint16(e.PartnerCount))
			dst = appendU16(dst, uint16(len(e.Addr)))
			dst = append(dst, e.Addr...)
		}
	case TypePartnerRequest:
		dst = appendU16(dst, uint16(len(m.Addr)))
		dst = append(dst, m.Addr...)
	case TypeBMExchange:
		// Inline BufferMap.MarshalBinary: u16 K | K×u64 latest | bitmap.
		k := m.BM.K()
		bmLen := 2 + 8*k + (k+7)/8
		if bmLen > 0xffff {
			return nil, fmt.Errorf("protocol: buffer map too large: %d bytes", bmLen)
		}
		dst = appendU16(dst, uint16(bmLen))
		dst = appendU16(dst, uint16(k))
		for _, v := range m.BM.Latest {
			dst = appendU64(dst, uint64(v))
		}
		off := len(dst)
		for i := 0; i < (k+7)/8; i++ {
			dst = append(dst, 0)
		}
		for i, s := range m.BM.Subscribed {
			if s {
				dst[off+i/8] |= 1 << (i % 8)
			}
		}
	case TypeSubscribe:
		dst = appendU16(dst, uint16(m.SubStream))
		dst = appendU64(dst, uint64(m.StartSeq))
	case TypeUnsubscribe:
		dst = appendU16(dst, uint16(m.SubStream))
	case TypeBlockPush:
		dst = appendU16(dst, uint16(m.SubStream))
		dst = appendU64(dst, uint64(m.StartSeq))
		if len(m.Payload) > 1<<24 {
			return nil, fmt.Errorf("protocol: block payload %d exceeds 16 MiB", len(m.Payload))
		}
		dst = appendU32(dst, uint32(len(m.Payload)))
		dst = append(dst, m.Payload...)
	}
	return dst, nil
}

// ---- scanning decoder -----------------------------------------------

// scanner walks a byte slice with an explicit offset and a latched
// first error, in the netboot/logsys wire idiom.
type scanner struct {
	b   []byte
	off int
	err error
}

func (s *scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("protocol: "+format, args...)
	}
}

func (s *scanner) u8(what string) uint8 {
	if s.err != nil {
		return 0
	}
	if s.off >= len(s.b) {
		s.fail("truncated %s", what)
		return 0
	}
	v := s.b[s.off]
	s.off++
	return v
}

func (s *scanner) u16(what string) uint16 {
	if s.err != nil {
		return 0
	}
	if s.off+2 > len(s.b) {
		s.fail("truncated %s", what)
		return 0
	}
	v := uint16(s.b[s.off])<<8 | uint16(s.b[s.off+1])
	s.off += 2
	return v
}

func (s *scanner) u32(what string) uint32 {
	if s.err != nil {
		return 0
	}
	if s.off+4 > len(s.b) {
		s.fail("truncated %s", what)
		return 0
	}
	b := s.b[s.off : s.off+4]
	s.off += 4
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func (s *scanner) u64(what string) uint64 {
	if s.err != nil {
		return 0
	}
	if s.off+8 > len(s.b) {
		s.fail("truncated %s", what)
		return 0
	}
	b := s.b[s.off : s.off+8]
	s.off += 8
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// bytes returns a sub-slice of the input (no copy).
func (s *scanner) bytes(n int, what string) []byte {
	if s.err != nil {
		return nil
	}
	if n < 0 || s.off+n > len(s.b) {
		s.fail("truncated %s", what)
		return nil
	}
	v := s.b[s.off : s.off+n]
	s.off += n
	return v
}

// zigzag reads one canonically-encoded zigzag varint: minimal length
// (no trailing zero continuation group) and no 64-bit overflow.
func (s *scanner) zigzag(what string) int64 {
	if s.err != nil {
		return 0
	}
	var u uint64
	var shift uint
	for i := 0; ; i++ {
		if s.off >= len(s.b) {
			s.fail("truncated %s", what)
			return 0
		}
		c := s.b[s.off]
		s.off++
		if i == 9 && c > 1 {
			s.fail("%s varint overflows int64", what)
			return 0
		}
		u |= uint64(c&0x7f) << shift
		if c&0x80 == 0 {
			if i > 0 && c == 0 {
				s.fail("%s varint not minimal", what)
				return 0
			}
			break
		}
		shift += 7
		if shift >= 64 {
			s.fail("%s varint overflows int64", what)
			return 0
		}
	}
	return int64(u>>1) ^ -int64(u&1)
}

// done latches an error if input remains unconsumed.
func (s *scanner) done() {
	if s.err == nil && s.off != len(s.b) {
		s.fail("%d trailing bytes", len(s.b)-s.off)
	}
}

// spares is decode storage not lent to a Message at the moment. A
// slice is either here or in the message the last decode filled, never
// in both, so a decoded message owns everything it points at.
type spares struct {
	entries []PeerEntry
	payload []byte
	lanes   []int64
	sub     []bool
	bm      buffer.BufferMap
}

// reclaim moves m's slices into sp, keeping the roomier of each pair.
func (sp *spares) reclaim(m *Message) {
	if cap(m.Entries) > cap(sp.entries) {
		sp.entries = m.Entries[:0]
	}
	if cap(m.Payload) > cap(sp.payload) {
		sp.payload = m.Payload[:0]
	}
	if cap(m.Delta.Lanes) > cap(sp.lanes) {
		sp.lanes = m.Delta.Lanes[:0]
	}
	if cap(m.Delta.Sub) > cap(sp.sub) {
		sp.sub = m.Delta.Sub[:0]
	}
	if cap(m.BM.Latest) > cap(sp.bm.Latest) && cap(m.BM.Subscribed) > cap(sp.bm.Subscribed) {
		sp.bm = m.BM
	}
}

// take moves *spare's array out as a slice of length n, or allocates
// one when it is too small.
func take[T any](spare *[]T, n int) []T {
	s := *spare
	*spare = nil
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// DecodeMessage decodes one message into *m, accepting exactly the
// canonical encodings AppendMessage produces. Every field is reset;
// the slices *m held for the decoded type's own fields (Entries, BM
// storage, Payload, Delta lanes/sub) are reused when their capacity
// suffices, and those of other fields are dropped — so a long-lived
// Message decodes a run of one hot type without allocating, while a
// mix of types allocates at every change of type. FrameReader.ReadInto
// keeps the dropped storage and has no such limit. Decoded strings
// always allocate (cold types only).
func DecodeMessage(data []byte, m *Message) error {
	var sp spares
	return sp.decode(data, m)
}

// decode is the one decoder: it reclaims *m's storage into sp, clears
// the message and fills it from data, drawing slices from sp.
func (sp *spares) decode(data []byte, m *Message) error {
	sp.reclaim(m)
	*m = Message{}

	s := &scanner{b: data}
	m.Type = MsgType(s.u8("type"))
	if s.err != nil {
		return s.err
	}
	if compactHeader(m.Type) {
		from := s.zigzag("from")
		to := s.zigzag("to")
		if s.err == nil && (from != int64(int32(from)) || to != int64(int32(to))) {
			s.fail("peer id out of int32 range")
		}
		m.From, m.To = int32(from), int32(to)
		if m.Type == TypeBMAck {
			m.AckEpoch = s.u8("ack epoch")
		} else {
			var err error
			m.Delta, err = scanBMDeltaPayload(s, sp)
			if err != nil {
				return err
			}
		}
		s.done()
		if s.err != nil {
			return s.err
		}
		return m.Validate()
	}
	m.From = int32(s.u32("from"))
	m.To = int32(s.u32("to"))
	switch m.Type {
	case TypeMCacheRequest:
		m.Want = int16(s.u16("want"))
	case TypeMCacheReply, TypePartnerReject:
		n := int(s.u16("entry count"))
		if s.err != nil {
			return s.err
		}
		m.Entries = take(&sp.entries, n)
		for i := range m.Entries {
			e := &m.Entries[i]
			e.ID = int32(s.u32("entry id"))
			class := s.u8("entry class")
			if s.err == nil && class >= netmodel.NumClasses {
				return fmt.Errorf("protocol: entry %d has invalid class %d", i, class)
			}
			e.Class = netmodel.UserClass(class)
			e.JoinedAtMs = int64(s.u64("entry joined-at"))
			e.PartnerCount = int16(s.u16("entry partners"))
			alen := int(s.u16("entry addr length"))
			ab := s.bytes(alen, "entry addr")
			if s.err != nil {
				return fmt.Errorf("protocol: truncated entry %d: %w", i, s.err)
			}
			e.Addr = string(ab)
		}
	case TypePartnerRequest:
		alen := int(s.u16("addr length"))
		m.Addr = string(s.bytes(alen, "addr"))
	case TypeBMExchange:
		n := int(s.u16("bm length"))
		body := s.bytes(n, "bm")
		if s.err != nil {
			return s.err
		}
		// Inline BufferMap.UnmarshalBinary with storage reuse; the
		// validation mirrors it exactly.
		if len(body) < 2 {
			return fmt.Errorf("buffer: buffer map truncated header")
		}
		k := int(uint16(body[0])<<8 | uint16(body[1]))
		if k == 0 {
			return fmt.Errorf("buffer: buffer map K = 0")
		}
		if want := 2 + 8*k + (k+7)/8; len(body) != want {
			return fmt.Errorf("buffer: buffer map length %d, want %d for K=%d", len(body), want, k)
		}
		bm := sp.bm
		sp.bm = buffer.BufferMap{}
		bm.Reset(k)
		off := 2
		for i := range bm.Latest {
			b := body[off : off+8]
			bm.Latest[i] = int64(uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 |
				uint64(b[3])<<32 | uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7]))
			off += 8
		}
		for i := range bm.Subscribed {
			bm.Subscribed[i] = body[off+i/8]&(1<<(i%8)) != 0
		}
		if tail := k % 8; tail != 0 && body[len(body)-1]&^byte(1<<tail-1) != 0 {
			return fmt.Errorf("buffer: buffer map bitmap sets bits past lane %d", k)
		}
		m.BM = bm
	case TypeSubscribe:
		m.SubStream = int16(s.u16("substream"))
		m.StartSeq = int64(s.u64("startseq"))
	case TypeUnsubscribe:
		m.SubStream = int16(s.u16("substream"))
	case TypeBlockPush:
		m.SubStream = int16(s.u16("substream"))
		m.StartSeq = int64(s.u64("block seq"))
		n := int(s.u32("payload length"))
		body := s.bytes(n, "payload")
		if s.err != nil {
			return s.err
		}
		m.Payload = take(&sp.payload, n)
		copy(m.Payload, body)
	case TypePartnerAccept, TypeLeave, TypePing:
		// No payload.
	default:
		return fmt.Errorf("protocol: unknown message type %d", uint8(m.Type))
	}
	s.done()
	if s.err != nil {
		return s.err
	}
	return m.Validate()
}
