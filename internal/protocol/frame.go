package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// MaxFrameBytes is the absolute frame size limit: a 16 MiB block plus
// headers comfortably fits; anything larger on the wire is corruption
// or abuse. Listeners that never carry blocks of that size should set
// a tighter per-reader bound via NewFrameReaderLimit.
const MaxFrameBytes = 1<<24 + 64

// frameHeaderLen is the u32 length prefix.
const frameHeaderLen = 4

// BlockPushOverhead is what a block-push frame adds to its payload:
// the length prefix, type, From and To, then sub-stream, sequence and
// payload length — so a frame's exact size is known before encoding.
const BlockPushOverhead = frameHeaderLen + 1 + 4 + 4 + 2 + 8 + 4

// AppendFrame appends one length-prefixed frame (header + encoded
// message) to dst and returns the extended slice. The result is ready
// for a single Write call.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	out, err := AppendMessage(dst, m)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(out[off:off+frameHeaderLen], uint32(len(out)-off-frameHeaderLen))
	return out, nil
}

// framePool recycles encode buffers for the standalone WriteFrame path
// (handshakes and tools; the batched writer manages its own buffers).
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// WriteFrame writes one length-prefixed message to w in a single
// Write call.
func WriteFrame(w io.Writer, m Message) error {
	bp := framePool.Get().(*[]byte)
	buf, err := AppendFrame((*bp)[:0], m)
	if err != nil {
		framePool.Put(bp)
		return err
	}
	_, werr := w.Write(buf)
	*bp = buf[:0]
	framePool.Put(bp)
	if werr != nil {
		return fmt.Errorf("protocol: frame write: %w", werr)
	}
	return nil
}

// ReadFrame reads one length-prefixed message from r. It allocates per
// frame; connection read loops should use FrameReader.ReadInto.
func ReadFrame(r io.Reader) (Message, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err // io.EOF passes through for clean close detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return Message{}, fmt.Errorf("protocol: frame length %d out of range", n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return Message{}, fmt.Errorf("protocol: truncated frame: %w", err)
	}
	var m Message
	err := DecodeMessage(data, &m)
	return m, err
}

// FrameReader wraps a connection with buffering for repeated frame
// reads, reusing one growable scratch buffer across frames and
// enforcing a per-reader frame size bound.
type FrameReader struct {
	br      *bufio.Reader
	max     uint32
	scratch []byte
	// spare holds the slices of the fields the last decoded type does
	// not carry, so a stream that interleaves block pushes, deltas and
	// acks decodes without allocating.
	spare spares
}

// maxReadBuffer caps the read buffer; a reader bounded below it needs
// no more buffer than one frame of its bound.
const maxReadBuffer = 64 * 1024

// NewFrameReader buffers r with the absolute frame limit.
func NewFrameReader(r io.Reader) *FrameReader {
	return NewFrameReaderLimit(r, MaxFrameBytes)
}

// NewFrameReaderLimit buffers r and rejects frames larger than max
// bytes before reading their bodies — a partner connection that only
// ever carries blocks of a known size has no business accepting
// 16 MiB control frames. max is clamped to [64, MaxFrameBytes].
func NewFrameReaderLimit(r io.Reader, max int) *FrameReader {
	if max < 64 {
		max = 64
	}
	if max > MaxFrameBytes {
		max = MaxFrameBytes
	}
	return &FrameReader{br: bufio.NewReaderSize(r, min(max, maxReadBuffer)), max: uint32(max)}
}

// ReadInto decodes the next frame into *m. It takes over the slices *m
// arrives with: those the decoded type carries are reused, the others
// are kept in the reader for a later frame, so one long-lived Message
// reads any mix of the hot types without allocating once each slice
// has reached its size. The decoded message is field for field what
// DecodeMessage yields and owns its data: nothing in it aliases the
// scratch buffer or storage the reader still holds.
func (fr *FrameReader) ReadInto(m *Message) error {
	// Peek+Discard instead of ReadFull into a local array: the array
	// would escape through the io.Reader interface and cost one tiny
	// allocation per frame.
	hdr, err := fr.br.Peek(frameHeaderLen)
	if len(hdr) < frameHeaderLen {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return err // io.EOF passes through for clean close detection
	}
	n := binary.BigEndian.Uint32(hdr)
	fr.br.Discard(frameHeaderLen)
	if n == 0 || n > fr.max {
		return fmt.Errorf("protocol: frame length %d out of range (limit %d)", n, fr.max)
	}
	if uint32(cap(fr.scratch)) < n {
		fr.scratch = make([]byte, n)
	}
	data := fr.scratch[:n]
	if _, err := io.ReadFull(fr.br, data); err != nil {
		return fmt.Errorf("protocol: truncated frame: %w", err)
	}
	return fr.spare.decode(data, m)
}

// Read returns the next message. It shares ReadInto's frame limit; the
// message is the caller's to keep.
func (fr *FrameReader) Read() (Message, error) {
	var m Message
	err := fr.ReadInto(&m)
	return m, err
}
