package logsys

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Sink receives log records. Implementations must be safe for
// concurrent use: the simulator may report from parallel shards.
type Sink interface {
	Log(rec Record)
}

// MemorySink retains all records in memory, the standard sink for
// simulation runs whose logs are analysed in-process.
type MemorySink struct {
	mu   sync.Mutex
	recs []Record
	// sorted caches the (time, peer, kind)-ordered view so repeated
	// Records() calls skip the O(n log n) re-sort; Log invalidates it.
	sorted []Record
}

// Log implements Sink.
func (s *MemorySink) Log(rec Record) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.sorted = nil
	s.mu.Unlock()
}

// Records returns a copy of all records sorted by (time, peer, kind)
// for deterministic analysis. The sorted view is cached: only the
// first call after a Log pays the sort.
func (s *MemorySink) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sorted == nil && len(s.recs) > 0 {
		s.sorted = append([]Record(nil), s.recs...)
		sortRecords(s.sorted)
	}
	return append([]Record(nil), s.sorted...)
}

// Drain returns all records sorted by (time, peer, kind), handing off
// the backing slice without copying, and resets the sink. It is the
// end-of-run path: the caller takes ownership of the slice.
func (s *MemorySink) Drain() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.sorted
	if out == nil {
		out = s.recs
		sortRecords(out)
	}
	s.recs, s.sorted = nil, nil
	return out
}

// Len returns the number of records logged so far.
func (s *MemorySink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// WriterSink streams each record as one log string per line, the
// on-disk format of the deployed log server. Each record is encoded
// into a reused buffer with the zero-allocation appender and delivered
// to the writer in a single Write call.
type WriterSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

// NewWriterSink wraps w.
func NewWriterSink(w io.Writer) *WriterSink { return &WriterSink{w: w} }

// Log implements Sink.
func (s *WriterSink) Log(rec Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = rec.AppendLogString(s.buf[:0])
	s.buf = append(s.buf, '\n')
	s.w.Write(s.buf)
}

// MultiSink fans records out to several sinks.
type MultiSink []Sink

// Log implements Sink.
func (m MultiSink) Log(rec Record) {
	for _, s := range m {
		s.Log(rec)
	}
}

// NopSink discards everything; used in benchmarks isolating protocol
// cost from logging cost.
type NopSink struct{}

// Log implements Sink.
func (NopSink) Log(Record) {}

// ScanLog parses a stream of newline-separated log strings and hands
// each record to fn in order, without materializing the whole log —
// the multi-GB re-analysis path. Malformed lines abort with an error
// carrying the line number; an error from fn aborts the scan.
func ScanLog(r io.Reader, fn func(Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		rec, err := ParseLogString(text)
		if err != nil {
			return &ParseError{Line: line, Err: err}
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ParseError reports a malformed log line.
type ParseError struct {
	Line int
	Err  error
}

// Error implements error.
func (e *ParseError) Error() string {
	return "logsys: line " + strconv.Itoa(e.Line) + ": " + e.Err.Error()
}

// Unwrap supports errors.Is/As.
func (e *ParseError) Unwrap() error { return e.Err }
