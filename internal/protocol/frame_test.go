package protocol

import (
	"bytes"
	"io"
	"testing"

	"coolstream/internal/netmodel"
)

func TestBlockPushRoundTrip(t *testing.T) {
	m := Message{
		Type: TypeBlockPush, From: 1, To: 2,
		SubStream: 3, StartSeq: 1234567, Payload: bytes.Repeat([]byte{0xAB}, 12000),
	}
	got := roundTrip(t, m)
	if got.SubStream != 3 || got.StartSeq != 1234567 || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("block push mangled: %d bytes", len(got.Payload))
	}
}

func TestBlockPushValidation(t *testing.T) {
	bad := []Message{
		{Type: TypeBlockPush, SubStream: -1, StartSeq: 0, Payload: []byte{1}},
		{Type: TypeBlockPush, SubStream: 0, StartSeq: -1, Payload: []byte{1}},
		{Type: TypeBlockPush, SubStream: 0, StartSeq: 0},
	}
	for i, m := range bad {
		if _, err := Marshal(m); err == nil {
			t.Errorf("case %d marshalled", i)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Type: TypePartnerRequest, From: 1, To: 2},
		{Type: TypeBlockPush, From: 2, To: 1, SubStream: 0, StartSeq: 9, Payload: []byte("blockdata")},
		{Type: TypeMCacheReply, From: -1, To: 1, Entries: []PeerEntry{{ID: 7, Class: netmodel.UPnP}}},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for i, want := range msgs {
		got, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.From != want.From {
			t.Fatalf("frame %d mismatch: %+v", i, got)
		}
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	// Zero length.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Oversized length.
	if _, err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated body.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 10, 1, 2})); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Malformed payload inside a well-formed frame.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 1, 200})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("malformed message accepted")
	}
}

// TestReadFrameAgreesWithFrameReader holds the two frame readers to one
// contract: the same message for every valid frame, the same
// accept/reject for every malformed one.
func TestReadFrameAgreesWithFrameReader(t *testing.T) {
	type input struct {
		name string
		wire []byte
	}
	var inputs []input
	for _, m := range seedMessages() {
		wire, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs,
			input{m.Type.String(), wire},
			input{m.Type.String() + " truncated body", wire[:len(wire)-1]})
	}
	inputs = append(inputs,
		input{"zero length", []byte{0, 0, 0, 0}},
		input{"over-limit length", []byte{0x01, 0x00, 0x00, 0x41, 0}}, // MaxFrameBytes + 1
		input{"unknown type", []byte{0, 0, 0, 1, 200}},
		input{"empty", nil},
	)
	for _, in := range inputs {
		a, errA := ReadFrame(bytes.NewReader(in.wire))
		b, errB := NewFrameReader(bytes.NewReader(in.wire)).Read()
		if (errA == nil) != (errB == nil) {
			t.Errorf("%s: ReadFrame err=%v, FrameReader.Read err=%v", in.name, errA, errB)
			continue
		}
		if errA != nil {
			if (errA == io.EOF) != (errB == io.EOF) {
				t.Errorf("%s: clean-close signal differs: %v vs %v", in.name, errA, errB)
			}
			continue
		}
		wa, _ := AppendMessage(nil, a)
		wb, _ := AppendMessage(nil, b)
		if !bytes.Equal(wa, wb) || !bytes.Equal(wa, in.wire[frameHeaderLen:]) {
			t.Errorf("%s: decoded messages differ:\n% x\n% x", in.name, wa, wb)
		}
	}
}

func TestWriteFrameRejectsInvalidMessage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Message{Type: MsgType(99)}); err == nil {
		t.Fatal("invalid message framed")
	}
	if buf.Len() != 0 {
		t.Fatal("partial frame written")
	}
}
