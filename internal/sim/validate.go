package sim

import (
	"fmt"
	"math"
)

// Default validation tolerances (the ISSUE-6 acceptance bars): sim
// exec totals within ±10% of a real run, final union coverage within
// ±5%. Wall-clock is gated looser — it absorbs CPU oversubscription
// and scheduler noise the per-exec calibration cannot see.
const (
	DefaultExecTol  = 0.10
	DefaultCoverTol = 0.05
	DefaultWallTol  = 0.30
)

// RunRecord is the ground truth of one real campaign, assembled from
// syzfuzz -stats-json (the hub.CampaignStats timing fields) plus,
// for hub-attached runs, the hub's /v1/stats sync aggregates. It
// carries both the configuration (to re-simulate the same fleet) and
// the outcome (to score the prediction).
type RunRecord struct {
	// Fleet configuration of the recorded run.
	Workers    int   `json:"workers"`
	ShardExecs int   `json:"shard_execs,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	Hub        bool  `json:"hub,omitempty"`
	Checkpoint bool  `json:"checkpoint,omitempty"`

	// Outcome.
	Execs     int   `json:"execs"`
	Cover     int   `json:"cover"`
	Crashes   int   `json:"crashes"`
	ElapsedNs int64 `json:"elapsed_ns"`
	WorkNs    int64 `json:"work_ns"`
	SyncNs    int64 `json:"sync_ns,omitempty"`
	Syncs     int   `json:"syncs,omitempty"`

	// Hub-side calibration inputs (from /v1/stats sync aggregates).
	HubServiceNsMean float64 `json:"hub_service_ns_mean,omitempty"`
	BytesPerSync     float64 `json:"bytes_per_sync,omitempty"`
	// WorkerSyncs are the per-worker sync aggregates — sample points
	// for decomposing hub service time into base + per-byte (workers
	// with different payload profiles give the regression leverage).
	WorkerSyncs []SyncSample `json:"worker_syncs,omitempty"`
}

// SyncSample is one worker's sync aggregate: Count exchanges with the
// given mean payload size and mean hub-side service time.
type SyncSample struct {
	Count         int     `json:"count"`
	MeanBytes     float64 `json:"mean_bytes"`
	MeanServiceNs float64 `json:"mean_service_ns"`
}

// fleetConfig reconstructs the recorded run's simulator config. The
// grain is pinned to the effective value the run used, so changing
// the exec budget (validation headroom) cannot shift the unit
// decomposition away from reality.
func (rec RunRecord) fleetConfig() FleetConfig {
	cfg := FleetConfig{
		Workers:    rec.Workers,
		Execs:      rec.Execs,
		ShardExecs: rec.ShardExecs,
		Hub:        rec.Hub,
		Checkpoint: rec.Checkpoint,
		Seed:       rec.Seed,
	}
	if cfg.ShardExecs <= 0 {
		cfg.ShardExecs = cfg.grain()
	}
	return cfg
}

// Validation scores the model's predictions against one RunRecord.
type Validation struct {
	Rec RunRecord `json:"record"`
	// PredWallNs is the predicted makespan of the recorded budget;
	// PredExecs/PredCover are the predicted completable budget and its
	// coverage inside the recorded wall-clock window.
	PredWallNs int64 `json:"pred_wall_ns"`
	PredExecs  int   `json:"pred_execs"`
	PredCover  int   `json:"pred_cover"`
	// Relative errors and their gates.
	ExecErr  float64  `json:"exec_err"`
	CoverErr float64  `json:"cover_err"`
	WallErr  float64  `json:"wall_err"`
	ExecTol  float64  `json:"exec_tol"`
	CoverTol float64  `json:"cover_tol"`
	WallTol  float64  `json:"wall_tol"`
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// Validate replays the recorded fleet through the model and gates the
// prediction error. The recorded budget is simulated to a predicted
// makespan (the wall gate scores it against real elapsed); the exec
// prediction is the model's sustained campaign throughput — recorded
// budget over predicted makespan, which folds in unit scheduling,
// sync contention, and campaign-end overhead — applied to the real
// window. Throughput scaling is used instead of truncating a larger
// budget at a deadline because the makespan is a staircase in the
// budget (every extra unit carries a fixed sync quantum), so a
// deadline cut can flip by a whole unit on a percent of wall noise;
// the real figure is a completed-campaign number and is compared to
// one. Cover is the yield curve at the predicted execs. Pass
// tolerance 0 to take a gate's default.
func Validate(m *Model, rec RunRecord, execTol, coverTol, wallTol float64) (Validation, error) {
	if execTol <= 0 {
		execTol = DefaultExecTol
	}
	if coverTol <= 0 {
		coverTol = DefaultCoverTol
	}
	if wallTol <= 0 {
		wallTol = DefaultWallTol
	}
	v := Validation{Rec: rec, ExecTol: execTol, CoverTol: coverTol, WallTol: wallTol}
	if rec.Execs <= 0 || rec.ElapsedNs <= 0 || rec.Cover <= 0 {
		return v, fmt.Errorf("sim: run record incomplete (execs=%d elapsed=%d cover=%d)",
			rec.Execs, rec.ElapsedNs, rec.Cover)
	}

	budget := rec.fleetConfig()
	wallRun, err := Simulate(m, budget)
	if err != nil {
		return v, err
	}
	v.PredWallNs = wallRun.WallNs

	v.PredExecs = int(math.Round(float64(rec.Execs) * float64(rec.ElapsedNs) / float64(wallRun.WallNs)))
	v.PredCover = int(math.Round(m.Yield.Cover(float64(v.PredExecs))))

	relErr := func(pred, real float64) float64 {
		return math.Abs(pred-real) / real
	}
	v.ExecErr = relErr(float64(v.PredExecs), float64(rec.Execs))
	v.CoverErr = relErr(float64(v.PredCover), float64(rec.Cover))
	v.WallErr = relErr(float64(v.PredWallNs), float64(rec.ElapsedNs))

	v.Pass = true
	gate := func(name string, err, tol float64) {
		if err > tol {
			v.Pass = false
			v.Failures = append(v.Failures, fmt.Sprintf("%s error %.1f%% exceeds ±%.0f%%", name, 100*err, 100*tol))
		}
	}
	gate("exec", v.ExecErr, execTol)
	gate("cover", v.CoverErr, coverTol)
	gate("wall", v.WallErr, wallTol)
	return v, nil
}
