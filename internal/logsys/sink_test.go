package logsys

import (
	"bufio"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"coolstream/internal/sim"
)

func TestMemorySinkSortsRecords(t *testing.T) {
	var s MemorySink
	s.Log(Record{Kind: KindLeave, At: 30, Peer: 2})
	s.Log(Record{Kind: KindJoin, At: 10, Peer: 1})
	s.Log(Record{Kind: KindJoin, At: 30, Peer: 1})
	recs := s.Records()
	if len(recs) != 3 || s.Len() != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].At != 10 || recs[1].Peer != 1 || recs[2].Peer != 2 {
		t.Fatalf("order wrong: %+v", recs)
	}
}

func TestMemorySinkConcurrent(t *testing.T) {
	var s MemorySink
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Log(Record{Kind: KindQoS, At: sim.Time(i), Peer: g})
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("lost records: %d", s.Len())
	}
}

// readLog materializes every record ScanLog yields.
func readLog(r io.Reader) ([]Record, error) {
	var out []Record
	err := ScanLog(r, func(rec Record) error {
		out = append(out, rec)
		return nil
	})
	return out, err
}

func TestWriterSinkAndReadLog(t *testing.T) {
	var buf strings.Builder
	s := NewWriterSink(&buf)
	want := []Record{
		{Kind: KindJoin, At: 1, Peer: 1, Session: 5, User: 1},
		{Kind: KindQoS, At: 300000, Peer: 1, Session: 5, User: 1, Continuity: 0.5},
	}
	for _, rec := range want {
		s.Log(rec)
	}
	got, err := readLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestReadLogSkipsBlankLines(t *testing.T) {
	text := "\n" + Record{Kind: KindJoin, Peer: 1}.LogString() + "\n\n"
	recs, err := readLog(strings.NewReader(text))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func TestReadLogReportsLineNumber(t *testing.T) {
	text := Record{Kind: KindJoin, Peer: 1}.LogString() + "\ngarbage&&&=\n"
	_, err := readLog(strings.NewReader(text))
	if err == nil {
		t.Fatal("garbage accepted")
	}
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 2 {
		t.Fatalf("error %v lacks line info", err)
	}
}

// TestReadLogCRLF: logs written on Windows (or piped through tools
// that normalize line endings) carry \r\n; the scanner must strip the
// \r rather than feed it to the parser.
func TestReadLogCRLF(t *testing.T) {
	want := []Record{
		{Kind: KindJoin, At: 1, Peer: 1, Session: 5, User: 1},
		{Kind: KindLeave, At: 9, Peer: 1, Session: 5, User: 1, Reason: "watch-done"},
	}
	text := want[0].LogString() + "\r\n" + want[1].LogString() + "\r\n"
	got, err := readLog(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("CRLF records misread: %+v", got)
	}
}

// TestScanLogLineSizeBoundary probes the scanner's 1 MiB line cap from
// both sides, padding a valid record with an unknown query key (the
// parser skips keys it does not know, mirroring url.Values.Get).
func TestScanLogLineSizeBoundary(t *testing.T) {
	const max = 1024 * 1024
	rec := Record{Kind: KindJoin, At: 7, Peer: 3, Session: 9, User: 3}
	pad := func(lineLen int) string {
		base := rec.LogString() + "&pad="
		return base + strings.Repeat("x", lineLen-len(base))
	}

	// The newline must fit in the buffer alongside the token, so the
	// largest line that scans is one byte below the cap.
	under := pad(max-1) + "\n"
	got, err := readLog(strings.NewReader(under))
	if err != nil {
		t.Fatalf("line at the cap rejected: %v", err)
	}
	if len(got) != 1 || got[0] != rec {
		t.Fatalf("padded record misread: %+v", got)
	}

	over := pad(max+1) + "\n"
	if _, err := readLog(strings.NewReader(over)); err == nil {
		t.Fatal("oversized line accepted")
	} else if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("oversized line failed with %v, want bufio.ErrTooLong", err)
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	var a, b MemorySink
	m := MultiSink{&a, &b}
	m.Log(Record{Kind: KindJoin, Peer: 1})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatal("fan-out failed")
	}
}

func TestNopSink(t *testing.T) {
	NopSink{}.Log(Record{Kind: KindJoin}) // must not panic
}

func TestParseErrorMessage(t *testing.T) {
	e := &ParseError{Line: 42, Err: errFake}
	if got := e.Error(); got != "logsys: line 42: fake" {
		t.Errorf("ParseError message: %q", got)
	}
}

var errFake = fakeErr{}

type fakeErr struct{}

func (fakeErr) Error() string { return "fake" }
