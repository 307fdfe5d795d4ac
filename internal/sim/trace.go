// Package sim is a deterministic discrete-event model of a fuzzing
// fleet, built for capacity planning: how many workers, what shard
// grain, what hub attachment does it take to reach a coverage target
// by a deadline — answered in microseconds of CPU instead of
// CPU-hours of real campaigns.
//
// The model has two halves, both fitted from the system's own
// telemetry rather than guessed:
//
//   - a CostModel of per-event nanosecond coefficients (one campaign
//     step, checkpoint flush, hub sync round-trip and hub-side service
//     time), calibrated from one recorded campaign's fuzz.Stats
//     wall-clock fields and the hub's sync aggregates, so the costs
//     are those of the machine the plan is for;
//   - a YieldModel mapping cumulative execs to expected union
//     coverage, fitted from real Progress traces with a saturating
//     diminishing-returns curve.
//
// Simulate replays the fleet's structure — the same unit
// decomposition as fuzz.RunParallel (fuzz.UnitGrain), a worker pool
// pulling units from a shared queue, the hub as a FIFO server
// serializing sync merges — against those coefficients. Everything is deterministic for a fixed
// (model, config, seed), so planner sweeps are reproducible and CI
// can gate on prediction error (cmd/syzplan validate).
package sim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// TracePoint is one observation of a running campaign: cumulative
// execs and merged union coverage at a monotone wall-clock offset.
// syzfuzz -trace appends one JSON line per Progress update; the yield
// fitter consumes the (Execs, Cover) pairs and the validator the time
// axis.
type TracePoint struct {
	// Rep is the 1-based repetition index for multi-rep runs (0 when
	// the producer ran a single campaign).
	Rep       int   `json:"rep,omitempty"`
	ElapsedNs int64 `json:"elapsed_ns"`
	Execs     int   `json:"execs"`
	Cover     int   `json:"cover"`
	Crashes   int   `json:"crashes,omitempty"`
	// Span names the event of a telemetry.Event line — flight dumps
	// and campaign traces share one JSONL shape, so a dump's event
	// lines parse as a trace. Span lines carry no cover observation;
	// the yield fitter skips them.
	Span string `json:"span,omitempty"`
}

// ReadTrace parses a JSON-lines trace stream. Blank lines are
// skipped; a malformed line is an error (truncated traces should be
// caught, not silently fitted).
func ReadTrace(r io.Reader) ([]TracePoint, error) {
	var pts []TracePoint
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var p TracePoint
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pts, nil
}

// ReadTraceFile reads a JSON-lines trace from disk.
func ReadTraceFile(path string) ([]TracePoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pts, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pts, nil
}

// yieldObservations reduces a trace to fit-ready (execs, cover)
// pairs: per repetition, sorted by execs, one point per distinct exec
// count (the last observation wins — Progress cover only grows). The
// origin (0, 0) is implicit in the curve form and not added here.
func yieldObservations(pts []TracePoint) []TracePoint {
	byRep := map[int][]TracePoint{}
	for _, p := range pts {
		if p.Execs <= 0 || p.Span != "" {
			continue
		}
		byRep[p.Rep] = append(byRep[p.Rep], p)
	}
	var out []TracePoint
	reps := make([]int, 0, len(byRep))
	for r := range byRep {
		reps = append(reps, r)
	}
	sort.Ints(reps)
	for _, r := range reps {
		rp := byRep[r]
		sort.SliceStable(rp, func(i, j int) bool { return rp[i].Execs < rp[j].Execs })
		for i, p := range rp {
			if i+1 < len(rp) && rp[i+1].Execs == p.Execs {
				continue
			}
			out = append(out, p)
		}
	}
	return out
}
