package fuzz

import "kernelgpt/internal/telemetry"

// Metrics is the campaign-side telemetry bundle. All fields are
// nil-safe instruments, and a nil *Metrics disables recording
// entirely, so the campaign loop carries one pointer and pays one nil
// check per event when telemetry is off.
//
// The campaign counters (Execs, CoverBlocks, Crashes) and ExecNs are
// fed by the driver at each campaign boundary, from the same campaign
// view it reports as Progress: each boundary adds the view's advance
// since the previous one. They are therefore shard-count-invariant and
// equal the returned Stats when the campaign ends, and telemetry never
// adds a clock read to the per-exec path. The rest are recorded where
// they happen: crash hits per exec, triage and sync latencies from the
// durations the campaign already measures into Stats.TriageTime and
// Stats.SyncTime, unit busy time as each unit ends.
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
	// ExecNs is campaign wall time per campaign exec (fuzz_exec_ns):
	// one observation per boundary, the campaign clock's advance over
	// the execs since the previous boundary. It includes amortized
	// mutation, observation and triage cost, and divides by the
	// parallelism of a sharded campaign, which is what a capacity
	// planner wants.
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

// boundary folds the campaign view's advance from prev to cur into the
// counters and, when execs advanced, the exec histogram.
func (m *Metrics) boundary(prev, cur *Progress) {
	if m == nil {
		return
	}
	m.CoverBlocks.Add(int64(cur.Cover - prev.Cover))
	m.Crashes.Add(int64(cur.Crashes - prev.Crashes))
	if de := cur.Execs - prev.Execs; de > 0 {
		m.Execs.Add(int64(de))
		m.ExecNs.Observe((cur.ElapsedNs - prev.ElapsedNs) / int64(de))
	}
}

// triaged records one crash's minimization latency.
func (m *Metrics) triaged(ns int64) {
	if m == nil {
		return
	}
	m.TriageNs.Observe(ns)
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
