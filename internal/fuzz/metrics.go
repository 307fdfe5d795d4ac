package fuzz

import "kernelgpt/internal/telemetry"

// Metrics is the campaign-side telemetry bundle. All fields are
// nil-safe instruments, and a nil *Metrics disables recording
// entirely, so the campaign loop carries one pointer and pays one nil
// check per event when telemetry is off.
//
// Counters and the exec histogram are fed per work unit at its ticks
// (every progressEvery execs) and once more when its budget is spent,
// from one clock read shared with the flight ring — telemetry never
// adds a wall-clock read to the per-exec path. Triage and sync
// histograms reuse the durations the campaign already measures into
// Stats.TriageTime/SyncTime.
type Metrics struct {
	// Execs counts executed programs (fuzz_execs_total).
	Execs *telemetry.Counter
	// CoverBlocks counts newly covered basic blocks
	// (fuzz_cover_blocks_total).
	CoverBlocks *telemetry.Counter
	// Crashes counts distinct crash titles discovered
	// (fuzz_crashes_total).
	Crashes *telemetry.Counter
	// CrashHits counts every crash reproduction, including duplicates
	// (fuzz_crash_hits_total).
	CrashHits *telemetry.Counter
	// ExecNs is the mean per-exec latency of each progress window
	// (fuzz_exec_ns): window wall time over window exec count, so it
	// includes amortized mutation/observation cost, which is what a
	// capacity planner wants.
	ExecNs *telemetry.Histogram
	// TriageNs is per-crash minimization latency (fuzz_triage_ns).
	TriageNs *telemetry.Histogram
	// SyncNs is per-hub-exchange latency (fuzz_sync_ns).
	SyncNs *telemetry.Histogram
	// UnitNs is per-work-unit busy time (fuzz_unit_ns): one
	// observation per serial campaign or RunParallel unit.
	UnitNs *telemetry.Histogram
}

// NewMetrics registers the campaign metric set on reg. A nil registry
// yields a nil (disabled) bundle.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Execs:       reg.Counter("fuzz_execs_total"),
		CoverBlocks: reg.Counter("fuzz_cover_blocks_total"),
		Crashes:     reg.Counter("fuzz_crashes_total"),
		CrashHits:   reg.Counter("fuzz_crash_hits_total"),
		ExecNs:      reg.Histogram("fuzz_exec_ns", nil),
		TriageNs:    reg.Histogram("fuzz_triage_ns", nil),
		SyncNs:      reg.Histogram("fuzz_sync_ns", nil),
		UnitNs:      reg.Histogram("fuzz_unit_ns", nil),
	}
}

// crashFound records a newly discovered crash title and, unless
// triage was disabled, its minimization latency.
func (m *Metrics) crashFound(triageNs int64, noTriage bool) {
	if m == nil {
		return
	}
	m.Crashes.Inc()
	if !noTriage {
		m.TriageNs.Observe(triageNs)
	}
}

// crashHit records one crash reproduction (duplicate or not).
func (m *Metrics) crashHit() {
	if m == nil {
		return
	}
	m.CrashHits.Inc()
}

// syncDone records one hub exchange's latency.
func (m *Metrics) syncDone(durNs int64) {
	if m == nil {
		return
	}
	m.SyncNs.Observe(durNs)
}

// unitDone records one work unit's busy time.
func (m *Metrics) unitDone(durNs int64) {
	if m == nil {
		return
	}
	m.UnitNs.Observe(durNs)
}

// metricsWindow folds a unit's tick-to-tick deltas into a Metrics
// bundle. The caller hands it the elapsed-ns value of the clock read
// it shares with the flight ring, so window recording costs no
// additional time source access.
type metricsWindow struct {
	m         *Metrics
	lastNs    int64
	lastExecs int
	lastCover int
}

// observe folds the window since the previous boundary into counters
// and the exec-latency histogram.
func (w *metricsWindow) observe(stats *Stats, nowNs int64) {
	if w.m == nil {
		return
	}
	cover := stats.CoverCount()
	if de := stats.Execs - w.lastExecs; de > 0 {
		w.m.Execs.Add(int64(de))
		w.m.ExecNs.Observe((nowNs - w.lastNs) / int64(de))
		w.lastNs = nowNs
		w.lastExecs = stats.Execs
	}
	if dc := cover - w.lastCover; dc > 0 {
		w.m.CoverBlocks.Add(int64(dc))
		w.lastCover = cover
	}
}
