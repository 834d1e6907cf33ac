package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coolstream/internal/logsys"
	"coolstream/internal/trace"
)

func TestWriteArtifacts(t *testing.T) {
	res, err := Run(smallConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	// Mandatory files exist and are non-empty.
	for _, name := range []string{"run.log", "run.jsonl", "sessions.csv", "joinrate.csv", "topology.csv", "figures.txt"} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	// The log round-trips through the parser.
	f, err := os.Open(filepath.Join(dir, "run.log"))
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	err = logsys.ScanLog(f, func(logsys.Record) error { logged++; return nil })
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if logged != len(res.Records) {
		t.Fatalf("log artifact has %d records, run had %d", logged, len(res.Records))
	}
	// The JSONL round-trips exactly.
	f, err = os.Open(filepath.Join(dir, "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	jrecs, err := trace.ReadRecords(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(jrecs) != len(res.Records) || jrecs[0] != res.Records[0] {
		t.Fatal("jsonl artifact mismatch")
	}
	// The series parses back.
	f, err = os.Open(filepath.Join(dir, "sessions.csv"))
	if err != nil {
		t.Fatal(err)
	}
	name, pts, err := trace.ReadSeries(f)
	f.Close()
	if err != nil || name != "sessions" || len(pts) == 0 {
		t.Fatalf("series artifact: %q %d %v", name, len(pts), err)
	}
	// figures.txt contains each figure title.
	data, err := os.ReadFile(filepath.Join(dir, "figures.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 3a", "Fig. 6", "Fig. 10b", "run summary"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("figures.txt missing %q", want)
		}
	}
	// At least one per-class continuity series was produced.
	matches, _ := filepath.Glob(filepath.Join(dir, "continuity_*.csv"))
	if len(matches) == 0 {
		t.Fatal("no per-class continuity artifacts")
	}
}

func TestWriteArtifactsBadDir(t *testing.T) {
	res, err := Run(smallConfig(18))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteArtifacts("/dev/null/impossible"); err == nil {
		t.Fatal("impossible directory accepted")
	}
}
