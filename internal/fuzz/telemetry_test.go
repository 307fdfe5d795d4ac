package fuzz

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kernelgpt/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got to testdata/<name>, rewriting the golden
// with -update (same convention as internal/hub).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s: %v (regenerate with -update)", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (regenerate with -update if deliberate):\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// fixedClock pins campaign time so every measured duration is zero
// and the /metrics exposition is a pure function of the seed.
func fixedClock() telemetry.Clock {
	at := time.Unix(1_700_000_000, 0).UTC()
	return func() time.Time { return at }
}

// runMetricsScenario runs one fully pinned campaign — fixed seed,
// fixed clock — with telemetry enabled and returns the /metrics
// exposition bytes.
func runMetricsScenario(t *testing.T) []byte {
	t.Helper()
	reg := telemetry.NewRegistry()
	f := New(targetFor(t, "dm"), testKernel)
	cfg := DefaultConfig(2000, 1)
	cfg.Clock = fixedClock()
	cfg.Metrics = NewMetrics(reg)
	stats := f.Run(cfg)
	if stats.Execs != 2000 {
		t.Fatalf("execs = %d", stats.Execs)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMetricsGoldenBytes pins the campaign /metrics exposition
// byte-for-byte under a fixed clock and seed: identical runs must
// scrape identically (all values are integers, durations are zero
// under the frozen clock, and counters are a pure function of the
// deterministic campaign), and must match the checked-in golden
// (regenerate with `go test ./internal/fuzz -run MetricsGolden
// -update`).
func TestMetricsGoldenBytes(t *testing.T) {
	scrape1 := runMetricsScenario(t)
	scrape2 := runMetricsScenario(t)
	if !bytes.Equal(scrape1, scrape2) {
		t.Errorf("/metrics is not byte-stable across identical runs:\nrun1:\n%s\nrun2:\n%s", scrape1, scrape2)
	}
	checkGolden(t, "golden_metrics.txt", scrape1)
}

// TestMetricsCountersMatchStats cross-checks the scrape against the
// campaign's own Stats: the counters and the stats are two views of
// one run and must agree exactly.
func TestMetricsCountersMatchStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	f := New(targetFor(t, "dm"), testKernel)
	cfg := DefaultConfig(2000, 1)
	cfg.Metrics = m
	stats := f.Run(cfg)
	if got := m.Execs.Value(); got != int64(stats.Execs) {
		t.Errorf("fuzz_execs_total = %d, stats.Execs = %d", got, stats.Execs)
	}
	if got := m.CoverBlocks.Value(); got != int64(stats.CoverCount()) {
		t.Errorf("fuzz_cover_blocks_total = %d, stats cover = %d", got, stats.CoverCount())
	}
	if got := m.Crashes.Value(); got != int64(stats.UniqueCrashes()) {
		t.Errorf("fuzz_crashes_total = %d, unique crashes = %d", got, stats.UniqueCrashes())
	}
	hits := int64(0)
	for _, cr := range stats.Crashes {
		hits += int64(cr.Count)
	}
	if got := m.CrashHits.Value(); got != hits {
		t.Errorf("fuzz_crash_hits_total = %d, summed crash counts = %d", got, hits)
	}
	if stats.UniqueCrashes() > 0 && m.TriageNs.Count() != int64(stats.UniqueCrashes()) {
		t.Errorf("fuzz_triage_ns count = %d, want one observation per unique crash (%d)",
			m.TriageNs.Count(), stats.UniqueCrashes())
	}
	if m.UnitNs.Count() != 1 {
		t.Errorf("fuzz_unit_ns count = %d, want 1 for a serial campaign", m.UnitNs.Count())
	}
}

// TestParallelMetricsShardInvariant runs the same budget at three
// worker counts: the exec/cover/crash counters must equal the returned
// Stats at each — they are the driver's campaign view, not a sum of
// unit-local ones — and so inherit RunParallel's worker-count
// invariance.
func TestParallelMetricsShardInvariant(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		m := NewMetrics(telemetry.NewRegistry())
		f := New(targetFor(t, "dm"), testKernel)
		cfg := DefaultConfig(4000, 3)
		cfg.ShardExecs = 1000
		cfg.Metrics = m
		stats, err := f.RunParallel(t.Context(), cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if stats.UniqueCrashes() == 0 {
			t.Fatal("campaign found no crashes; the crash counter is untested")
		}
		if got := m.Execs.Value(); got != int64(stats.Execs) {
			t.Errorf("%d workers: fuzz_execs_total = %d, stats.Execs = %d", workers, got, stats.Execs)
		}
		if got := m.CoverBlocks.Value(); got != int64(stats.CoverCount()) {
			t.Errorf("%d workers: fuzz_cover_blocks_total = %d, stats cover = %d", workers, got, stats.CoverCount())
		}
		if got := m.Crashes.Value(); got != int64(stats.UniqueCrashes()) {
			t.Errorf("%d workers: fuzz_crashes_total = %d, unique crashes = %d", workers, got, stats.UniqueCrashes())
		}
		if m.UnitNs.Count() != 4 {
			t.Errorf("%d workers: fuzz_unit_ns count = %d, want one per unit", workers, m.UnitNs.Count())
		}
	}
}

// TestFlightTimeBaseIsCampaign: every flight event of a sharded
// campaign sits on the campaign's axes. On one worker the units run in
// order, so neither the ring's elapsed_ns nor its exec indices ever
// decrease, and each title's first crash event carries the remapped
// FirstExec the merged Stats report — not a unit-local index on the
// unit's own clock.
func TestFlightTimeBaseIsCampaign(t *testing.T) {
	dir := t.TempDir()
	var ticks atomic.Int64
	clock := telemetry.Clock(func() time.Time {
		return time.Unix(1_700_000_000, 0).Add(time.Duration(ticks.Add(1)) * time.Millisecond)
	})
	fr := telemetry.NewFlightRecorder(dir, 256, clock)
	f := New(targetFor(t, "dm"), testKernel)
	cfg := DefaultConfig(4000, 3)
	cfg.ShardExecs = 1000
	cfg.Clock = clock
	cfg.Flight = fr
	stats, err := f.RunParallel(t.Context(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	path, err := fr.Dump("end")
	if err != nil {
		t.Fatal(err)
	}
	_, events, err := telemetry.ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	windows, lastNs, lastExec := 0, int64(-1), int64(-1)
	first := map[string]int64{}
	for _, ev := range events {
		if ev.ElapsedNs < lastNs {
			t.Errorf("elapsed_ns went back from %d to %d at %+v", lastNs, ev.ElapsedNs, ev)
		}
		if ev.Execs < lastExec {
			t.Errorf("exec index went back from %d to %d at %+v", lastExec, ev.Execs, ev)
		}
		lastNs, lastExec = ev.ElapsedNs, ev.Execs
		switch ev.Span {
		case "window":
			windows++
		case "crash":
			if _, ok := first[ev.Detail]; !ok {
				first[ev.Detail] = ev.Execs
			}
		}
	}
	if windows != 4 {
		t.Errorf("window events = %d, want one per unit boundary (4)", windows)
	}
	if len(first) != stats.UniqueCrashes() || len(first) == 0 {
		t.Fatalf("crash titles in the ring = %d, stats = %d", len(first), stats.UniqueCrashes())
	}
	for title, exec := range first {
		if want := int64(stats.Crashes[title].FirstExec); exec != want {
			t.Errorf("%s: first crash event at exec %d, Stats FirstExec %d", title, exec, want)
		}
	}
}

// TestFlightDumpOnCrash is the flight-recorder acceptance check: a
// campaign that crashes with a recorder attached must leave a dump
// whose final event is the crashing exec's span, and that exec index
// must match the crash report's FirstExec.
func TestFlightDumpOnCrash(t *testing.T) {
	dir := t.TempDir()
	fr := telemetry.NewFlightRecorder(dir, 64, nil)
	f := New(targetFor(t, "dm"), testKernel)
	cfg := DefaultConfig(2000, 1)
	cfg.Flight = fr
	stats := f.Run(cfg)
	if stats.UniqueCrashes() == 0 {
		t.Fatal("campaign found no crashes; the flight path is untested")
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != stats.UniqueCrashes() {
		t.Fatalf("dumps = %d, want one per unique crash (%d)", len(dumps), stats.UniqueCrashes())
	}
	for _, dump := range dumps {
		reason, events, err := telemetry.ReadFlightDump(dump)
		if err != nil {
			t.Fatal(err)
		}
		last := events[len(events)-1]
		if last.Span != "crash" {
			t.Fatalf("%s: final event span = %q, want the crashing exec's crash span", dump, last.Span)
		}
		if last.Detail != reason {
			t.Fatalf("%s: final span title %q != dump reason %q", dump, last.Detail, reason)
		}
		cr := stats.Crashes[last.Detail]
		if cr == nil {
			t.Fatalf("%s: dumped crash %q not in campaign stats", dump, last.Detail)
		}
		if last.Execs != int64(cr.FirstExec) {
			t.Fatalf("%s: final span exec %d != crash FirstExec %d", dump, last.Execs, cr.FirstExec)
		}
	}
}

// TestFlightDumpIsSpanStream checks every dump line after the header
// is a named telemetry.Event — the span JSONL shape sim.ReadTrace
// reads.
func TestFlightDumpIsSpanStream(t *testing.T) {
	dir := t.TempDir()
	fr := telemetry.NewFlightRecorder(dir, 64, nil)
	f := New(targetFor(t, "dm"), testKernel)
	cfg := DefaultConfig(2000, 1)
	cfg.Flight = fr
	f.Run(cfg)
	dumps, _ := filepath.Glob(filepath.Join(dir, "flight-*.jsonl"))
	if len(dumps) == 0 {
		t.Fatal("no dumps")
	}
	data, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, line := range lines[1:] { // line 0 is the header
		var rec telemetry.Event
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("dump line is not an event: %q: %v", line, err)
		}
		if rec.Span == "" {
			t.Fatalf("dump line has empty span: %q", line)
		}
	}
}

// TestDisabledTelemetryIsInert asserts the zero-config campaign never
// touches telemetry: same stats with and without the fields defaulted
// (the disabled-path guarantee BenchmarkCampaign gates on).
func TestDisabledTelemetryIsInert(t *testing.T) {
	f := New(targetFor(t, "dm"), testKernel)
	a := f.Run(DefaultConfig(800, 7))
	cfg := DefaultConfig(800, 7)
	cfg.Metrics = nil
	cfg.Flight = nil
	cfg.Clock = nil
	b := f.Run(cfg)
	if a.CoverCount() != b.CoverCount() || a.UniqueCrashes() != b.UniqueCrashes() || a.Execs != b.Execs {
		t.Fatalf("telemetry-disabled campaign diverged: %d/%d/%d vs %d/%d/%d",
			a.CoverCount(), a.UniqueCrashes(), a.Execs, b.CoverCount(), b.UniqueCrashes(), b.Execs)
	}
}
