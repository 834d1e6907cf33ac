package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"coolstream/internal/netmodel"
)

// Test-only differential oracle: the original binary.Write/binary.Read
// codec, kept verbatim. FuzzUnmarshal and the append/oracle property
// tests hold AppendMessage to Marshal's bytes and DecodeMessage to
// Unmarshal's accept set; no non-test file names either function. The
// wire layout is documented in append.go.

// Marshal encodes a message. It validates first, so malformed messages
// never reach the wire.
func Marshal(m Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if compactHeader(m.Type) {
		// The compact varint-header types live in the append codec;
		// there is one encoder for them, so reference == fast by
		// construction.
		return AppendMessage(nil, m)
	}
	var b bytes.Buffer
	b.WriteByte(byte(m.Type))
	writeI32 := func(v int32) { binary.Write(&b, binary.BigEndian, v) }
	writeI32(m.From)
	writeI32(m.To)
	switch m.Type {
	case TypeMCacheRequest:
		binary.Write(&b, binary.BigEndian, m.Want)
	case TypeMCacheReply, TypePartnerReject:
		if len(m.Entries) > 0xffff {
			return nil, fmt.Errorf("protocol: %d entries exceed reply limit", len(m.Entries))
		}
		binary.Write(&b, binary.BigEndian, uint16(len(m.Entries)))
		for _, e := range m.Entries {
			binary.Write(&b, binary.BigEndian, e.ID)
			b.WriteByte(byte(e.Class))
			binary.Write(&b, binary.BigEndian, e.JoinedAtMs)
			binary.Write(&b, binary.BigEndian, e.PartnerCount)
			binary.Write(&b, binary.BigEndian, uint16(len(e.Addr)))
			b.WriteString(e.Addr)
		}
	case TypePartnerRequest:
		binary.Write(&b, binary.BigEndian, uint16(len(m.Addr)))
		b.WriteString(m.Addr)
	case TypeBMExchange:
		bm, err := m.BM.MarshalBinary()
		if err != nil {
			return nil, err
		}
		if len(bm) > 0xffff {
			return nil, fmt.Errorf("protocol: buffer map too large: %d bytes", len(bm))
		}
		binary.Write(&b, binary.BigEndian, uint16(len(bm)))
		b.Write(bm)
	case TypeSubscribe:
		binary.Write(&b, binary.BigEndian, m.SubStream)
		binary.Write(&b, binary.BigEndian, m.StartSeq)
	case TypeUnsubscribe:
		binary.Write(&b, binary.BigEndian, m.SubStream)
	case TypeBlockPush:
		binary.Write(&b, binary.BigEndian, m.SubStream)
		binary.Write(&b, binary.BigEndian, m.StartSeq)
		if len(m.Payload) > 1<<24 {
			return nil, fmt.Errorf("protocol: block payload %d exceeds 16 MiB", len(m.Payload))
		}
		binary.Write(&b, binary.BigEndian, uint32(len(m.Payload)))
		b.Write(m.Payload)
	}
	return b.Bytes(), nil
}

// Unmarshal decodes a message produced by Marshal.
func Unmarshal(data []byte) (Message, error) {
	var m Message
	if len(data) > 0 && compactHeader(MsgType(data[0])) {
		err := DecodeMessage(data, &m)
		return m, err
	}
	r := bytes.NewReader(data)
	var typ uint8
	if err := binary.Read(r, binary.BigEndian, &typ); err != nil {
		return m, fmt.Errorf("protocol: truncated type: %w", err)
	}
	m.Type = MsgType(typ)
	if err := binary.Read(r, binary.BigEndian, &m.From); err != nil {
		return m, fmt.Errorf("protocol: truncated from: %w", err)
	}
	if err := binary.Read(r, binary.BigEndian, &m.To); err != nil {
		return m, fmt.Errorf("protocol: truncated to: %w", err)
	}
	switch m.Type {
	case TypeMCacheRequest:
		if err := binary.Read(r, binary.BigEndian, &m.Want); err != nil {
			return m, fmt.Errorf("protocol: truncated want: %w", err)
		}
	case TypeMCacheReply, TypePartnerReject:
		var n uint16
		if err := binary.Read(r, binary.BigEndian, &n); err != nil {
			return m, fmt.Errorf("protocol: truncated entry count: %w", err)
		}
		m.Entries = make([]PeerEntry, n)
		for i := range m.Entries {
			e := &m.Entries[i]
			var class uint8
			if err := binary.Read(r, binary.BigEndian, &e.ID); err != nil {
				return m, fmt.Errorf("protocol: truncated entry %d: %w", i, err)
			}
			if err := binary.Read(r, binary.BigEndian, &class); err != nil {
				return m, fmt.Errorf("protocol: truncated entry %d: %w", i, err)
			}
			if class >= netmodel.NumClasses {
				return m, fmt.Errorf("protocol: entry %d has invalid class %d", i, class)
			}
			e.Class = netmodel.UserClass(class)
			if err := binary.Read(r, binary.BigEndian, &e.JoinedAtMs); err != nil {
				return m, fmt.Errorf("protocol: truncated entry %d: %w", i, err)
			}
			if err := binary.Read(r, binary.BigEndian, &e.PartnerCount); err != nil {
				return m, fmt.Errorf("protocol: truncated entry %d: %w", i, err)
			}
			var alen uint16
			if err := binary.Read(r, binary.BigEndian, &alen); err != nil {
				return m, fmt.Errorf("protocol: truncated entry %d: %w", i, err)
			}
			if alen > 0 {
				buf := make([]byte, alen)
				if _, err := io.ReadFull(r, buf); err != nil {
					return m, fmt.Errorf("protocol: truncated entry %d addr: %w", i, err)
				}
				e.Addr = string(buf)
			}
		}
	case TypePartnerRequest:
		var alen uint16
		if err := binary.Read(r, binary.BigEndian, &alen); err != nil {
			return m, fmt.Errorf("protocol: truncated addr length: %w", err)
		}
		if alen > 0 {
			buf := make([]byte, alen)
			if _, err := io.ReadFull(r, buf); err != nil {
				return m, fmt.Errorf("protocol: truncated addr: %w", err)
			}
			m.Addr = string(buf)
		}
	case TypeBMExchange:
		var n uint16
		if err := binary.Read(r, binary.BigEndian, &n); err != nil {
			return m, fmt.Errorf("protocol: truncated bm length: %w", err)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return m, fmt.Errorf("protocol: truncated bm: %w", err)
		}
		if err := m.BM.UnmarshalBinary(buf); err != nil {
			return m, err
		}
	case TypeSubscribe:
		if err := binary.Read(r, binary.BigEndian, &m.SubStream); err != nil {
			return m, fmt.Errorf("protocol: truncated substream: %w", err)
		}
		if err := binary.Read(r, binary.BigEndian, &m.StartSeq); err != nil {
			return m, fmt.Errorf("protocol: truncated startseq: %w", err)
		}
	case TypeUnsubscribe:
		if err := binary.Read(r, binary.BigEndian, &m.SubStream); err != nil {
			return m, fmt.Errorf("protocol: truncated substream: %w", err)
		}
	case TypeBlockPush:
		if err := binary.Read(r, binary.BigEndian, &m.SubStream); err != nil {
			return m, fmt.Errorf("protocol: truncated substream: %w", err)
		}
		if err := binary.Read(r, binary.BigEndian, &m.StartSeq); err != nil {
			return m, fmt.Errorf("protocol: truncated block seq: %w", err)
		}
		var n uint32
		if err := binary.Read(r, binary.BigEndian, &n); err != nil {
			return m, fmt.Errorf("protocol: truncated payload length: %w", err)
		}
		if int(n) > r.Len() {
			return m, fmt.Errorf("protocol: payload length %d exceeds remaining %d", n, r.Len())
		}
		m.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return m, fmt.Errorf("protocol: truncated payload: %w", err)
		}
	case TypePartnerAccept, TypeLeave, TypePing:
		// No payload.
	default:
		return m, fmt.Errorf("protocol: unknown message type %d", typ)
	}
	if r.Len() != 0 {
		return m, fmt.Errorf("protocol: %d trailing bytes", r.Len())
	}
	if err := m.Validate(); err != nil {
		return m, err
	}
	return m, nil
}
