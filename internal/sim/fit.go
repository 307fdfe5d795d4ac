package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
)

// CampaignBenchExecs is the per-op execution budget of the
// BenchmarkCampaign* benchmarks in internal/fuzz — the divisor that
// turns their ns/op medians into per-exec coefficients.
const CampaignBenchExecs = 500

// Benchmark keys FitCosts reads from the medians file.
const (
	benchCampaign         = "kernelgpt/internal/fuzz.BenchmarkCampaign"
	benchCampaignNoTriage = "kernelgpt/internal/fuzz.BenchmarkCampaignNoTriage"
	benchVMRunCompiled    = "kernelgpt/internal/vkernel.BenchmarkVMRunCompiled"
)

// LoadBenchMedians reads per-benchmark ns/op medians from JSON. Both
// the flat export schema (`benchgate -json` / `benchtables -json`:
// {"benchmarks": {key: {"ns_per_op": N}}}) and the full gate file
// (BENCH_fuzz.json: {"gate": {"benchmarks": ...}}) are accepted, so
// the checked-in baseline is directly usable as a fit input.
func LoadBenchMedians(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Benchmarks map[string]struct {
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"benchmarks"`
		Gate struct {
			Benchmarks map[string]struct {
				NsPerOp float64 `json:"ns_per_op"`
			} `json:"benchmarks"`
		} `json:"gate"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bm := doc.Benchmarks
	if len(bm) == 0 {
		bm = doc.Gate.Benchmarks
	}
	if len(bm) == 0 {
		return nil, fmt.Errorf("%s: no benchmark medians found", path)
	}
	out := make(map[string]float64, len(bm))
	for k, v := range bm {
		out[k] = v.NsPerOp
	}
	return out, nil
}

// FitCosts derives per-exec cost coefficients from benchmark medians:
//
//	ExecNs   = VMRunCompiled ns/op
//	TriageNs = (Campaign − CampaignNoTriage) / CampaignBenchExecs
//	MutateNs = CampaignNoTriage / CampaignBenchExecs − ExecNs
//
// VMRunCompiled is the campaign loop's per-exec cost; MutateNs absorbs
// the per-candidate compile step alongside mutation proper (the
// identity ExecNs + MutateNs ≈ CampaignNoTriage/CampaignBenchExecs
// holds).
// Because the coefficients are a pure function of the medians, the
// CostModel must be re-fitted whenever the benchgate baseline is
// re-recorded — a stale fit silently plans against the old kernel.
//
// Coefficients the benchmarks do not cover (checkpoint, sync, LLM)
// stay zero; Calibrate fills the sync costs from a real hub-attached
// run.
func FitCosts(medians map[string]float64) (CostModel, error) {
	full := medians[benchCampaign]
	noTriage := medians[benchCampaignNoTriage]
	vm := medians[benchVMRunCompiled]
	if full <= 0 || noTriage <= 0 || vm <= 0 {
		return CostModel{}, fmt.Errorf("sim: medians missing %s, %s, or %s",
			benchCampaign, benchCampaignNoTriage, benchVMRunCompiled)
	}
	c := CostModel{ExecNs: vm}
	c.TriageNs = math.Max(0, (full-noTriage)/CampaignBenchExecs)
	c.MutateNs = math.Max(0, noTriage/CampaignBenchExecs-vm)
	return c, nil
}

// FitYield fits the saturating yield curve to a Progress trace by
// deterministic coarse-to-fine grid search minimizing exec-weighted
// squared error (late observations carry more weight because the
// planner cares most about final coverage). The search grids and
// tie-breaking are fixed, so the same trace always fits the same
// parameters — no RNG, no convergence-order dependence.
func FitYield(pts []TracePoint) (YieldModel, error) {
	obs := yieldObservations(pts)
	if len(obs) < 3 {
		return YieldModel{}, errors.New("sim: yield fit needs at least 3 trace points with execs > 0")
	}
	maxCover, maxExecs := 0, 0
	for _, p := range obs {
		if p.Cover > maxCover {
			maxCover = p.Cover
		}
		if p.Execs > maxExecs {
			maxExecs = p.Execs
		}
	}
	if maxCover <= 0 {
		return YieldModel{}, errors.New("sim: trace has no coverage observations")
	}

	sse := func(y YieldModel) float64 {
		s := 0.0
		for _, p := range obs {
			d := y.Cover(float64(p.Execs)) - float64(p.Cover)
			s += float64(p.Execs) * d * d
		}
		return s
	}

	// Cmax cannot be below the best observed cover; K is searched in
	// log space around the observed exec scale; B spans gentle to
	// sharp saturation.
	cmaxLo, cmaxHi := float64(maxCover), 3*float64(maxCover)
	kLo, kHi := float64(maxExecs)/256, float64(maxExecs)*16
	bLo, bHi := 0.1, 4.0

	best := YieldModel{}
	bestErr := math.Inf(1)
	const steps = 16
	for round := 0; round < 3; round++ {
		for ci := 0; ci <= steps; ci++ {
			cmax := cmaxLo + (cmaxHi-cmaxLo)*float64(ci)/steps
			for ki := 0; ki <= steps; ki++ {
				k := kLo * math.Pow(kHi/kLo, float64(ki)/steps)
				for bi := 0; bi <= steps; bi++ {
					b := bLo + (bHi-bLo)*float64(bi)/steps
					y := YieldModel{Cmax: cmax, K: k, B: b}
					if e := sse(y); e < bestErr {
						bestErr, best = e, y
					}
				}
			}
		}
		// Refine: shrink each range around the incumbent, keeping the
		// Cmax floor at the observed maximum.
		cmaxLo = math.Max(float64(maxCover), best.Cmax/1.3)
		cmaxHi = best.Cmax * 1.3
		kLo, kHi = best.K/2, best.K*2
		bLo, bHi = math.Max(0.05, best.B/1.5), best.B*1.5
	}
	if !best.Valid() {
		return YieldModel{}, errors.New("sim: yield fit did not converge to a valid curve")
	}
	return best, nil
}

// Calibrate overrides the bench-derived coefficients with ground
// truth from one recorded campaign (a RunRecord built from syzfuzz
// -stats-json plus the hub's /v1/stats): per-exec busy time from
// WorkNs split into exec/mutate by the prior ratio, amortized triage
// from TriageNs, and the sync round-trip decomposed into hub service
// time (measured hub-side) and client-side base cost. Bench medians
// give the model portable priors; calibration pins it to the machine
// and configuration the plan is actually for.
func (m *Model) Calibrate(rec RunRecord) {
	if rec.Execs <= 0 {
		return
	}
	if rec.SeedsPerSync > 0 {
		m.SeedsPerSync = rec.SeedsPerSync
	}
	if rec.WorkNs > 0 {
		work := float64(rec.WorkNs)
		triage := math.Min(float64(rec.TriageNs), work)
		m.Cost.TriageNs = triage / float64(rec.Execs)
		core := (work - triage) / float64(rec.Execs)
		if prior := m.Cost.ExecNs + m.Cost.MutateNs; prior > 0 {
			m.Cost.ExecNs = core * m.Cost.ExecNs / prior
			m.Cost.MutateNs = core * m.Cost.MutateNs / prior
		} else {
			// No bench prior: split on the refactored loop's typical
			// raw-exec share.
			m.Cost.ExecNs = 0.7 * core
			m.Cost.MutateNs = 0.3 * core
		}
	}
	if rec.BytesPerSync > 0 {
		m.BytesPerSync = rec.BytesPerSync
	}
	if rec.Syncs > 0 && rec.SyncNs > 0 {
		roundTrip := float64(rec.SyncNs) / float64(rec.Syncs)
		if base, perByte, ok := fitHubService(rec.WorkerSyncs); ok {
			m.Cost.HubServiceNs = base
			m.Cost.HubPerByteNs = perByte
		} else if rec.HubServiceNsMean > 0 {
			m.Cost.HubServiceNs = rec.HubServiceNsMean
		}
		m.Cost.SyncBaseNs = math.Max(0,
			roundTrip-m.Cost.HubServiceNs-m.Cost.HubPerByteNs*m.BytesPerSync-
				m.SeedsPerSync*m.Cost.SyncPerSeedNs)
	}
	m.CrashesPerExec = float64(rec.Crashes) / float64(rec.Execs)
}

// fitHubService decomposes hub service time into a per-sync base and a
// per-byte slope by count-weighted least squares over per-worker sync
// aggregates (service = base + perByte·bytes). It needs at least two
// samples with distinct payload sizes for leverage; otherwise ok is
// false and the caller falls back to the fleet-wide service mean. Both
// coefficients are clamped non-negative — a negative slope (noise, or
// a cold-start worker with big first payloads) degrades to the
// flat-mean model rather than predicting cheaper syncs for bigger
// payloads.
func fitHubService(samples []SyncSample) (base, perByte float64, ok bool) {
	var w, sumB, sumS float64
	for _, s := range samples {
		if s.Count <= 0 || s.MeanServiceNs <= 0 {
			continue
		}
		w += float64(s.Count)
		sumB += float64(s.Count) * s.MeanBytes
		sumS += float64(s.Count) * s.MeanServiceNs
	}
	if w <= 0 {
		return 0, 0, false
	}
	meanB, meanS := sumB/w, sumS/w
	var sbb, sbs float64
	for _, s := range samples {
		if s.Count <= 0 || s.MeanServiceNs <= 0 {
			continue
		}
		db := s.MeanBytes - meanB
		sbb += float64(s.Count) * db * db
		sbs += float64(s.Count) * db * (s.MeanServiceNs - meanS)
	}
	if sbb <= 0 {
		// All samples at one payload size: no per-byte leverage.
		return 0, 0, false
	}
	perByte = sbs / sbb
	base = meanS - perByte*meanB
	if perByte < 0 {
		perByte = 0
		base = meanS
	}
	if base < 0 {
		base = 0
		if meanB > 0 {
			perByte = meanS / meanB
		}
	}
	return base, perByte, true
}
