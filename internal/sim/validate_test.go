package sim

import (
	"strings"
	"testing"
)

// recordFromSim builds a "real" RunRecord by simulating with a truth
// model — a closed loop where the recorded run is exactly what the
// model describes, so validation against the same model must pass and
// validation against a skewed model must fail.
func recordFromSim(t *testing.T, m *Model, cfg FleetConfig) RunRecord {
	t.Helper()
	r, err := Simulate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return RunRecord{
		Workers: cfg.Workers, ShardExecs: cfg.ShardExecs, Seed: cfg.Seed,
		Hub: cfg.Hub, Checkpoint: cfg.Checkpoint,
		Execs: r.Execs, Cover: r.Cover, Crashes: int(r.Crashes),
		ElapsedNs: r.WallNs, WorkNs: r.WorkNs,
		SyncNs: r.SyncNs, Syncs: r.Syncs,
	}
}

func TestValidateAcceptsConsistentModel(t *testing.T) {
	m := testModel()
	rec := recordFromSim(t, m, FleetConfig{Workers: 3, Execs: 24_576, ShardExecs: 2048, Hub: true, Seed: 11})
	v, err := Validate(m, rec, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Fatalf("self-consistent record failed validation: %+v", v)
	}
	if v.ExecErr > 0.02 || v.WallErr > 0.02 {
		t.Fatalf("closed-loop errors should be tiny: %+v", v)
	}
	// Deterministic per record: the same validation twice.
	v2, err := Validate(m, rec, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.PredExecs != v2.PredExecs || v.PredCover != v2.PredCover || v.PredWallNs != v2.PredWallNs {
		t.Fatalf("validation not deterministic: %+v vs %+v", v, v2)
	}
}

func TestValidateRejectsSkewedModel(t *testing.T) {
	truth := testModel()
	rec := recordFromSim(t, truth, FleetConfig{Workers: 3, Execs: 24_576, ShardExecs: 2048, Seed: 12})
	skewed := testModel()
	skewed.Cost.StepNs *= 2 // 2× slower per exec than reality
	v, err := Validate(skewed, rec, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatalf("2× cost skew passed validation: %+v", v)
	}
	if len(v.Failures) == 0 || !strings.Contains(strings.Join(v.Failures, ";"), "exceeds") {
		t.Fatalf("failures not reported: %+v", v.Failures)
	}
}

func TestValidateRejectsIncompleteRecord(t *testing.T) {
	if _, err := Validate(testModel(), RunRecord{Workers: 2}, 0, 0, 0); err == nil {
		t.Fatal("empty record validated")
	}
}
