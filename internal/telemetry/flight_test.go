package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlightRecorderRingEviction(t *testing.T) {
	fr := NewFlightRecorder(t.TempDir(), 4, fixedClock(1_700_000_000))
	for i := 1; i <= 6; i++ {
		fr.Record(Event{Span: "e", ElapsedNs: int64(i), Execs: int64(i)})
	}
	path, err := fr.Dump("crash")
	if err != nil {
		t.Fatal(err)
	}
	reason, events, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if reason != "crash" {
		t.Fatalf("reason: %q", reason)
	}
	if len(events) != 4 {
		t.Fatalf("dump events: got %d, want 4", len(events))
	}
	// Oldest-first: events 3..6 survive the eviction of 1 and 2.
	for i, ev := range events {
		if ev.Execs != int64(i+3) {
			t.Fatalf("event %d: got exec %d, want %d", i, ev.Execs, i+3)
		}
	}
	if events[len(events)-1].Execs != 6 {
		t.Fatal("final event must be the most recent")
	}
}

func TestFlightDumpNamingAndSequence(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(dir, 4, fixedClock(1_700_000_000))
	fr.Record(Event{Span: "x", ElapsedNs: 1})
	p1, err := fr.Dump("bug: a/b")
	if err != nil {
		t.Fatal(err)
	}
	if got := filepath.Base(p1); got != "flight-0001-bug__a_b.jsonl" {
		t.Fatalf("dump name: %q", got)
	}
	p2, err := fr.Dump("bug: a/b")
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("sequence number must advance per dump")
	}
	if !strings.HasPrefix(filepath.Base(p2), "flight-0002-") {
		t.Fatalf("second dump name: %q", filepath.Base(p2))
	}
}

func TestFlightNilAndEmpty(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(Event{Span: "x"})
	path, err := fr.Dump("crash")
	if err != nil || path != "" {
		t.Fatalf("nil dump: path=%q err=%v", path, err)
	}
	fr2 := NewFlightRecorder(t.TempDir(), 4, nil)
	path, err = fr2.Dump("crash")
	if err != nil || path != "" {
		t.Fatalf("empty-ring dump must be a no-op: path=%q err=%v", path, err)
	}
}

func TestFlightDumpStampedFromClock(t *testing.T) {
	fr := NewFlightRecorder(t.TempDir(), 4, fixedClock(1_700_000_000))
	fr.Record(Event{Span: "x", ElapsedNs: 1})
	path, err := fr.Dump("ok")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr flightHeader
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.UnixNs != 1_700_000_000*1_000_000_000 {
		t.Fatalf("dump header not stamped from clock: %d", hdr.UnixNs)
	}
}
