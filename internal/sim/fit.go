package sim

import (
	"errors"
	"math"
)

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

// Calibrate fits the cost model to one recorded campaign (a
// RunRecord built from syzfuzz -stats-json plus the hub's /v1/stats):
// the per-exec step cost is the workers' busy time per exec, and the
// sync round-trip is decomposed into hub service time (measured
// hub-side) and the client-side base cost. Fitting from a run on the
// machine the plan is for is what keeps the costs honest: a coefficient
// recorded elsewhere plans against another machine.
func (m *Model) Calibrate(rec RunRecord) {
	if rec.Execs <= 0 {
		return
	}
	if rec.WorkNs > 0 {
		m.Cost.StepNs = float64(rec.WorkNs) / float64(rec.Execs)
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
			roundTrip-m.Cost.HubServiceNs-m.Cost.HubPerByteNs*m.BytesPerSync)
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
