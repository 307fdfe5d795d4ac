package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
)

// CostModel is the per-event nanosecond coefficients of the fleet.
// All costs are per occurrence; the simulator multiplies them by
// event counts derived from the fleet config.
type CostModel struct {
	// StepNs is a worker's busy time per campaign execution: the whole
	// step (generation or mutation, execution, coverage bookkeeping,
	// corpus admission) with crash triage amortized over the budget.
	StepNs float64 `json:"step_ns"`
	// CheckpointNs is one corpus-store flush at a unit boundary. No
	// fit sets it yet: it is zero unless the model file carries it.
	CheckpointNs float64 `json:"checkpoint_ns"`
	// SyncBaseNs is the client-side fixed cost of one hub exchange
	// (serialization, HTTP round-trip) excluding the hub's service
	// time, which is modeled separately because it serializes across
	// workers.
	SyncBaseNs float64 `json:"sync_base_ns"`
	// HubServiceNs is the hub-side per-sync base service time — the
	// payload-independent part of the merge/save/diff work done under
	// the hub lock. Syncs queue behind it FIFO, so this coefficient is
	// what makes sync fan-in a bottleneck at scale.
	HubServiceNs float64 `json:"hub_service_ns"`
	// HubPerByteNs is the marginal hub service time per request
	// payload byte, splitting service cost into base + per-byte so the
	// planner sees what a compact wire format buys: halving bytes per
	// sync halves this term, not the base.
	HubPerByteNs float64 `json:"hub_per_byte_ns,omitempty"`
}

// YieldModel maps cumulative execs to expected union coverage with a
// saturating diminishing-returns curve:
//
//	Cover(e) = Cmax · (1 − (1 + e/K)^−B)
//
// Cmax is the asymptotic reachable block count, K the exec scale at
// which returns start diminishing, and B the decay sharpness. The
// form starts at 0, grows monotonically, saturates at Cmax, and has
// the analytic inverse Execs(c) used by planner queries.
type YieldModel struct {
	Cmax float64 `json:"cmax"`
	K    float64 `json:"k"`
	B    float64 `json:"b"`
}

// Cover predicts union coverage after execs executions.
func (y YieldModel) Cover(execs float64) float64 {
	if execs <= 0 || y.Cmax <= 0 || y.K <= 0 || y.B <= 0 {
		return 0
	}
	return y.Cmax * (1 - math.Pow(1+execs/y.K, -y.B))
}

// Execs inverts Cover: the exec budget at which the model first
// reaches cover blocks. Returns +Inf when cover ≥ Cmax (unreachable
// under the fitted curve).
func (y YieldModel) Execs(cover float64) float64 {
	if cover <= 0 {
		return 0
	}
	if y.Cmax <= 0 || cover >= y.Cmax {
		return math.Inf(1)
	}
	return y.K * (math.Pow(1-cover/y.Cmax, -1/y.B) - 1)
}

// Valid reports whether the yield parameters describe a usable curve.
func (y YieldModel) Valid() bool {
	return y.Cmax > 0 && y.K > 0 && y.B > 0 &&
		!math.IsInf(y.Cmax, 0) && !math.IsInf(y.K, 0) && !math.IsInf(y.B, 0)
}

// Model is the full fitted campaign model — the on-disk document
// `syzplan fit` writes and run/sweep/validate consume.
type Model struct {
	Cost  CostModel  `json:"cost"`
	Yield YieldModel `json:"yield"`
	// BytesPerSync is the mean request payload of one hub exchange in
	// bytes, scaling the per-byte hub service cost (protocol-
	// dependent: the binary wire format records a smaller figure than
	// JSON for the same campaign).
	BytesPerSync float64 `json:"bytes_per_sync,omitempty"`
	// CrashesPerExec is the observed unique-crash discovery rate, used
	// only to project expected crash counts (it does not affect time).
	CrashesPerExec float64 `json:"crashes_per_exec,omitempty"`
	// FittedFrom records the provenance of the coefficients (free
	// text: trace file, calibration run).
	FittedFrom string `json:"fitted_from,omitempty"`
}

// Validate checks the model is usable for simulation.
func (m *Model) Validate() error {
	if m.Cost.StepNs <= 0 {
		return errors.New("sim: cost model has no positive per-exec time (calibrate it first)")
	}
	if !m.Yield.Valid() {
		return errors.New("sim: yield model not fitted (Cmax/K/B must be positive and finite)")
	}
	return nil
}

// Save writes the model as indented JSON.
func (m *Model) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadModel reads a model file written by Save.
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}
