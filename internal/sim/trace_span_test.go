package sim

import (
	"bytes"
	"os"
	"testing"
	"time"

	"kernelgpt/internal/telemetry"
)

// TestSpanLinesShareTraceShape: the event lines of a telemetry flight
// dump parse with ReadTrace, and span lines are inert for yield
// fitting — a trace file with interleaved spans fits identically to
// one without.
func TestSpanLinesShareTraceShape(t *testing.T) {
	clock := telemetry.Clock(func() time.Time { return time.Unix(1_700_000_000, 0).UTC() })
	fr := telemetry.NewFlightRecorder(t.TempDir(), 8, clock)
	fr.Record(telemetry.Event{Span: "window", ElapsedNs: 1_000_000, Execs: 100})
	fr.Record(telemetry.Event{Span: "sync", ElapsedNs: 2_000_000, DurNs: 1_000_000, Execs: 100, Detail: "final"})
	path, err := fr.Dump("trace-shape")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, events, _ := bytes.Cut(data, []byte("\n")) // line 0 is the dump header
	pts, err := ReadTrace(bytes.NewReader(events))
	if err != nil {
		t.Fatalf("span stream does not parse as a trace: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d trace points, want 2", len(pts))
	}
	for _, p := range pts {
		if p.Span == "" || p.Execs != 100 || p.ElapsedNs == 0 {
			t.Fatalf("span line lost its span name or axes: %+v", p)
		}
	}

	truth := YieldModel{Cmax: 1200, K: 3000, B: 0.8}
	clean := syntheticTrace(truth, 500, 40)
	mixed := make([]TracePoint, 0, len(clean)+len(pts))
	for i, p := range clean {
		mixed = append(mixed, p)
		if i%10 == 0 {
			mixed = append(mixed, TracePoint{Span: "sync", ElapsedNs: p.ElapsedNs, Execs: p.Execs})
		}
	}
	a, err := FitYield(clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitYield(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("span lines perturbed the fit: %+v vs %+v", a, b)
	}
}
