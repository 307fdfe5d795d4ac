package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Event is one point event: a flight-recorder ring entry and a dump
// line. Its JSON shape is the campaign trace's (sim.TracePoint:
// elapsed_ns is the offset on the producer's stream clock, execs its
// exec index, and the span name marks the line as an event the yield
// fitter skips), so a dump file reads as a span stream: the last line
// of a crash dump is the crashing exec's span.
type Event struct {
	Span      string `json:"span"`
	ElapsedNs int64  `json:"elapsed_ns"`
	DurNs     int64  `json:"dur_ns,omitempty"`
	Execs     int64  `json:"execs,omitempty"`
	Detail    string `json:"detail,omitempty"`
}

// flightHeader is the first line of every dump file: why the dump was
// taken, when (per the injected clock), and how many events follow.
type flightHeader struct {
	Flight string `json:"flight"`
	Reason string `json:"reason"`
	UnixNs int64  `json:"unix_ns"`
	Events int    `json:"events"`
}

// FlightRecorder keeps a bounded ring of recent telemetry events in
// memory and dumps them (oldest first) to a JSONL file when asked —
// typically when a campaign records a crash or a hub request fails —
// so every crash report carries the last N events of engine activity.
// All methods are safe for concurrent use and inert on a nil
// receiver. Recording is a ring-slot write under a mutex: no
// allocation once the ring is warm.
type FlightRecorder struct {
	dir   string
	clock Clock

	mu   sync.Mutex
	ring []Event // guarded by mu
	next int     // guarded by mu; index of the oldest slot once full
	full bool    // guarded by mu
	seq  int     // guarded by mu; dump file sequence number
}

// NewFlightRecorder returns a recorder holding the last size events,
// dumping into dir. Size defaults to 256 when <= 0.
func NewFlightRecorder(dir string, size int, clock Clock) *FlightRecorder {
	if size <= 0 {
		size = 256
	}
	return &FlightRecorder{dir: dir, clock: clock, ring: make([]Event, size)}
}

// Record appends one event to the ring verbatim, evicting the oldest
// when full.
func (f *FlightRecorder) Record(ev Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring[f.next] = ev
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.full = true
	}
	f.mu.Unlock()
}

// snapshotLocked returns the ring contents oldest-first; f.mu held.
func (f *FlightRecorder) snapshotLocked() []Event {
	out := make([]Event, 0, len(f.ring))
	if f.full {
		out = append(out, f.ring[f.next:]...)
	}
	out = append(out, f.ring[:f.next]...)
	return out
}

// Dump writes the current ring (oldest first) to
// dir/flight-<seq>-<reason>.jsonl and returns the file path. The
// first line is a header recording the reason and event count; each
// following line is one Event. Dumping does not clear the ring, so
// overlapping crashes each get full context. Returns "" with no
// error on a nil recorder or an empty ring.
func (f *FlightRecorder) Dump(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	events := f.snapshotLocked()
	f.seq++
	seq := f.seq
	f.mu.Unlock()
	if len(events) == 0 {
		return "", nil
	}
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(f.dir, fmt.Sprintf("flight-%04d-%s.jsonl", seq, sanitizeReason(reason)))
	tmp, err := os.CreateTemp(f.dir, ".flight-*")
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(tmp)
	err = enc.Encode(flightHeader{
		Flight: "v1",
		Reason: reason,
		UnixNs: f.clock.Now().UnixNano(),
		Events: len(events),
	})
	for i := range events {
		if err == nil {
			err = enc.Encode(events[i])
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return path, nil
}

// sanitizeReason keeps dump filenames portable: anything outside
// [a-zA-Z0-9._-] becomes '_', and the reason is capped at 48 bytes.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "event"
	}
	if len(reason) > 48 {
		reason = reason[:48]
	}
	b := []byte(reason)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// ReadFlightDump parses a dump file back into its header fields and
// events — the test/tooling-side inverse of Dump.
func ReadFlightDump(path string) (reason string, events []Event, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	var hdr flightHeader
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&hdr); err != nil {
		return "", nil, fmt.Errorf("flight dump %s: bad header: %w", path, err)
	}
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return "", nil, fmt.Errorf("flight dump %s: bad event: %w", path, err)
		}
		events = append(events, ev)
	}
	if len(events) != hdr.Events {
		return "", nil, fmt.Errorf("flight dump %s: header says %d events, found %d", path, hdr.Events, len(events))
	}
	return hdr.Reason, events, nil
}
