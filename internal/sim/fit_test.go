package sim

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// syntheticTrace samples a known yield curve, so fits can be scored
// against ground truth.
func syntheticTrace(truth YieldModel, step, n int) []TracePoint {
	var pts []TracePoint
	for i := 1; i <= n; i++ {
		e := i * step
		pts = append(pts, TracePoint{
			ElapsedNs: int64(e) * 1000,
			Execs:     e,
			Cover:     int(math.Round(truth.Cover(float64(e)))),
		})
	}
	return pts
}

func TestFitYieldRecoversCurve(t *testing.T) {
	truth := YieldModel{Cmax: 1200, K: 3000, B: 0.8}
	pts := syntheticTrace(truth, 500, 40)
	got, err := FitYield(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Parameters need not match exactly (the surface has shallow
	// valleys), but predictions across the observed range and beyond
	// must track the generator closely.
	for _, e := range []float64{500, 2000, 8000, 20000, 40000} {
		want, have := truth.Cover(e), got.Cover(e)
		if rel := math.Abs(have-want) / want; rel > 0.03 {
			t.Fatalf("fit off at %v execs: want cover %.1f, got %.1f (%.1f%%)", e, want, have, 100*rel)
		}
	}
}

func TestFitYieldDeterministic(t *testing.T) {
	pts := syntheticTrace(YieldModel{Cmax: 900, K: 1500, B: 1.2}, 400, 25)
	a, err := FitYield(pts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitYield(pts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same trace fitted differently: %+v vs %+v", a, b)
	}
}

func TestFitYieldMonotone(t *testing.T) {
	y, err := FitYield(syntheticTrace(YieldModel{Cmax: 700, K: 800, B: 0.6}, 300, 30))
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for e := 0; e <= 50000; e += 250 {
		c := y.Cover(float64(e))
		if c < prev {
			t.Fatalf("fitted curve not monotone at %d execs: %v < %v", e, c, prev)
		}
		if c > y.Cmax {
			t.Fatalf("fitted curve exceeds its own asymptote at %d execs: %v > %v", e, c, y.Cmax)
		}
		prev = c
	}
	// The analytic inverse must invert the forward map.
	for _, e := range []float64{100, 1000, 10000} {
		if back := y.Execs(y.Cover(e)); math.Abs(back-e)/e > 1e-6 {
			t.Fatalf("Execs(Cover(%v)) = %v", e, back)
		}
	}
	if !math.IsInf(y.Execs(y.Cmax+1), 1) {
		t.Fatal("cover beyond the asymptote must need infinite execs")
	}
}

func TestModelRoundTrip(t *testing.T) {
	pts := syntheticTrace(YieldModel{Cmax: 1100, K: 2200, B: 0.9}, 500, 20)
	yield, err := FitYield(pts)
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{
		Cost: CostModel{
			StepNs: 128005, CheckpointNs: 1e6, SyncBaseNs: 2e6,
			HubServiceNs: 5e5, HubPerByteNs: 2.5,
		},
		Yield:          yield,
		BytesPerSync:   900,
		CrashesPerExec: 2.5e-4,
		FittedFrom:     "test",
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Fatalf("model did not round-trip:\nsaved  %+v\nloaded %+v", m, got)
	}
}

func TestFitYieldRejectsThinTraces(t *testing.T) {
	_, err := FitYield([]TracePoint{{Execs: 10, Cover: 5}})
	if err == nil || !strings.Contains(err.Error(), "at least 3") {
		t.Fatalf("thin trace fitted anyway: %v", err)
	}
}

func TestCalibrateOverridesCosts(t *testing.T) {
	m := &Model{
		Cost:  CostModel{StepNs: 250},
		Yield: YieldModel{Cmax: 100, K: 100, B: 1},
	}
	m.Calibrate(RunRecord{
		Execs: 1000, Cover: 90, Crashes: 2,
		WorkNs: 400_000,
		SyncNs: 30_000, Syncs: 10,
		HubServiceNsMean: 1200,
	})
	// The step cost is the recorded busy time per exec.
	if got := m.Cost.StepNs; got != 400 {
		t.Fatalf("step cost not recalibrated: %v", got)
	}
	// Sync round-trip 3000ns minus 1200ns hub service = client base.
	if m.Cost.HubServiceNs != 1200 || m.Cost.SyncBaseNs != 1800 {
		t.Fatalf("sync decomposition wrong: %+v", m.Cost)
	}
	if m.CrashesPerExec != 0.002 {
		t.Fatalf("crash rate wrong: %+v", m)
	}
}

func TestFitHubServiceDecomposition(t *testing.T) {
	// Exact line service = 500 + 2·bytes through two worker samples.
	base, perByte, ok := fitHubService([]SyncSample{
		{Count: 10, MeanBytes: 100, MeanServiceNs: 700},
		{Count: 10, MeanBytes: 400, MeanServiceNs: 1300},
	})
	if !ok || math.Abs(base-500) > 1e-9 || math.Abs(perByte-2) > 1e-9 {
		t.Fatalf("exact fit wrong: base=%v perByte=%v ok=%v", base, perByte, ok)
	}

	// One payload size: no leverage, caller must fall back to the mean.
	if _, _, ok := fitHubService([]SyncSample{
		{Count: 5, MeanBytes: 200, MeanServiceNs: 900},
		{Count: 5, MeanBytes: 200, MeanServiceNs: 1100},
	}); ok {
		t.Fatal("fit claimed leverage from a single payload size")
	}

	// Negative slope (noise) clamps to the flat-mean model.
	base, perByte, ok = fitHubService([]SyncSample{
		{Count: 10, MeanBytes: 100, MeanServiceNs: 1300},
		{Count: 10, MeanBytes: 400, MeanServiceNs: 700},
	})
	if !ok || perByte != 0 || base != 1000 {
		t.Fatalf("negative slope not clamped: base=%v perByte=%v ok=%v", base, perByte, ok)
	}
}

func TestCalibratePerByteDecomposition(t *testing.T) {
	m := &Model{
		Cost:  CostModel{StepNs: 200},
		Yield: YieldModel{Cmax: 100, K: 100, B: 1},
	}
	m.Calibrate(RunRecord{
		Execs:  1000,
		SyncNs: 30_000, Syncs: 10,
		HubServiceNsMean: 1000, // ignored: worker samples take precedence
		BytesPerSync:     250,
		WorkerSyncs: []SyncSample{
			{Count: 10, MeanBytes: 100, MeanServiceNs: 700},
			{Count: 10, MeanBytes: 400, MeanServiceNs: 1300},
		},
	})
	if math.Abs(m.Cost.HubServiceNs-500) > 1e-9 || math.Abs(m.Cost.HubPerByteNs-2) > 1e-9 {
		t.Fatalf("per-byte decomposition wrong: %+v", m.Cost)
	}
	if m.BytesPerSync != 250 {
		t.Fatalf("BytesPerSync not calibrated: %v", m.BytesPerSync)
	}
	// Round-trip 3000ns minus effective hub service 500+2·250=1000ns.
	if math.Abs(m.Cost.SyncBaseNs-2000) > 1e-9 {
		t.Fatalf("client base residual wrong: %v", m.Cost.SyncBaseNs)
	}
}
