package sim

import (
	"errors"
	"fmt"
	"math"

	"kernelgpt/internal/fuzz"
)

// maxSimUnits bounds a single simulation's unit count — a safety rail
// keeping planner sweeps in the milliseconds even for absurd configs.
const maxSimUnits = 1 << 20

// jitterAmp is the ±fraction of deterministic per-unit duration
// jitter, decorrelating unit completions the way real scheduling
// noise does (without it, equal-budget units finish in lockstep and
// hub queueing collapses to a degenerate pattern no real run shows).
const jitterAmp = 0.02

// FleetConfig describes one fleet configuration to simulate.
type FleetConfig struct {
	// Workers is the worker pool size (fuzz.RunParallel shards).
	Workers int `json:"workers"`
	// Execs is the campaign execution budget.
	Execs int `json:"execs"`
	// ShardExecs is the unit grain; 0 applies the fuzzer's default
	// rule (fuzz.UnitGrain).
	ShardExecs int `json:"shard_execs,omitempty"`
	// DeadlineNs truncates the campaign at a wall-clock horizon
	// (0 = run the budget out).
	DeadlineNs int64 `json:"deadline_ns,omitempty"`
	// Checkpoint adds a corpus flush at every unit boundary.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// Hub attaches the fleet to a hub: one sync per completed unit
	// plus a final push, serialized through the hub's FIFO service.
	Hub bool `json:"hub,omitempty"`
	// Seed drives the deterministic per-unit jitter.
	Seed int64 `json:"seed,omitempty"`
}

// grain resolves the effective unit grain.
func (c FleetConfig) grain() int { return fuzz.UnitGrain(c.Execs, c.ShardExecs) }

// Result is one simulated campaign outcome.
type Result struct {
	Config FleetConfig `json:"config"`
	// Execs actually performed (== Config.Execs unless the deadline
	// truncated the campaign).
	Execs int `json:"execs"`
	// Cover is the predicted union coverage (yield curve at Execs).
	Cover int `json:"cover"`
	// Crashes is the expected unique-crash count (rate × execs).
	Crashes float64 `json:"crashes"`
	// WallNs is the campaign makespan; WorkNs the summed worker busy
	// time (their ratio is pool utilization).
	WallNs int64 `json:"wall_ns"`
	WorkNs int64 `json:"work_ns"`
	// SyncNs is the summed worker-side sync round-trip time (queueing
	// included), Syncs the exchange count, HubBusyNs the hub's total
	// service time (HubBusyNs/WallNs is hub utilization — the
	// saturation signal for sync fan-in).
	SyncNs    int64 `json:"sync_ns"`
	Syncs     int   `json:"syncs"`
	HubBusyNs int64 `json:"hub_busy_ns"`
	// Units is the number of work units scheduled; Truncated reports
	// whether the deadline cut the budget short.
	Units     int  `json:"units"`
	Truncated bool `json:"truncated,omitempty"`
}

// Utilization is WorkNs spread over Workers×WallNs.
func (r Result) Utilization() float64 {
	if r.WallNs <= 0 || r.Config.Workers <= 0 {
		return 0
	}
	return float64(r.WorkNs) / (float64(r.WallNs) * float64(r.Config.Workers))
}

// splitmix64 is the per-unit jitter hash (same construction the
// fuzzer uses for unit seed derivation).
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unitJitter returns the deterministic duration factor for unit i:
// 1 ± jitterAmp, fixed by (seed, unit).
func unitJitter(seed int64, unit int) float64 {
	h := splitmix64(uint64(seed) ^ uint64(unit+1)*0x9e3779b97f4a7c15)
	u := float64(h>>11) / float64(1<<53) // [0, 1)
	return 1 + jitterAmp*(2*u-1)
}

// Simulate runs one fleet configuration through the discrete-event
// model and returns its predicted outcome. The schedule mirrors the
// campaign driver (fuzz.drive) on a sharded plan, RunParallel's: the
// budget splits into fixed-grain units, workers pull units from a
// shared queue (earliest-free worker takes the next unit), each
// completed unit is one boundary — an optional checkpoint flush, then
// one hub exchange — and hub-attached campaigns end with a final push.
// A serial campaign's live plan (a boundary every 1 024 execs of its
// one unit) is not modelled.
// The hub is a FIFO single server — a sync arriving while another is
// being served queues, which is exactly how the real hub's mutex
// behaves — so sync fan-in contention emerges from the model instead
// of being a hand-tuned penalty. Deterministic for fixed inputs.
func Simulate(m *Model, cfg FleetConfig) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Execs <= 0 {
		return Result{}, errors.New("sim: config needs a positive exec budget")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	grain := cfg.grain()
	units := (cfg.Execs + grain - 1) / grain
	if units > maxSimUnits {
		return Result{}, fmt.Errorf("sim: %d units exceeds the %d-unit cap (raise ShardExecs)", units, maxSimUnits)
	}
	workers := cfg.Workers
	if workers > units {
		workers = units
	}

	res := Result{Config: cfg, Units: units}
	// Hub service splits into a payload-independent base plus a
	// per-byte term, so protocols with smaller sync payloads (the
	// binary wire format) shrink the serialized-bottleneck portion.
	hubSvc := m.Cost.HubServiceNs + m.Cost.HubPerByteNs*m.BytesPerSync
	deadline := float64(cfg.DeadlineNs)

	workerFree := make([]float64, workers)
	hubFree := 0.0
	work, syncTime, hubBusy := 0.0, 0.0, 0.0

	// One hub exchange: FIFO service then the client-side tail.
	exchange := func(arrive float64) (done float64) {
		svcStart := math.Max(arrive, hubFree)
		hubFree = svcStart + hubSvc
		done = hubFree + m.Cost.SyncBaseNs
		syncTime += done - arrive
		hubBusy += hubSvc
		res.Syncs++
		return done
	}

	for i := 0; i < units; i++ {
		// Earliest-free worker pulls the next unit (ties: lowest
		// index) — the queue discipline of pool.Run.
		w := 0
		for j := 1; j < workers; j++ {
			if workerFree[j] < workerFree[w] {
				w = j
			}
		}
		start := workerFree[w]
		if deadline > 0 && start >= deadline {
			// This worker — and so every later unit — is out of time.
			res.Truncated = true
			break
		}
		budget := grain
		if rem := cfg.Execs - i*grain; rem < budget {
			budget = rem
		}
		busy := float64(budget) * m.Cost.StepNs * unitJitter(cfg.Seed, i)
		if deadline > 0 && start+busy > deadline {
			// Partial unit: prorate the execs done inside the window.
			frac := (deadline - start) / busy
			res.Execs += int(math.Round(float64(budget) * frac))
			work += deadline - start
			workerFree[w] = deadline
			res.Truncated = true
			continue
		}
		res.Execs += budget
		work += busy
		t := start + busy
		if cfg.Checkpoint {
			t += m.Cost.CheckpointNs
		}
		if cfg.Hub {
			t = exchange(t)
		}
		workerFree[w] = t
	}

	wall := 0.0
	for _, t := range workerFree {
		wall = math.Max(wall, t)
	}
	if cfg.Hub && !res.Truncated {
		// Campaign-end final push, after the last unit completes.
		wall = exchange(wall)
	}
	if deadline > 0 && wall > deadline {
		wall = deadline
	}

	res.WallNs = int64(math.Round(wall))
	res.WorkNs = int64(math.Round(work))
	res.SyncNs = int64(math.Round(syncTime))
	res.HubBusyNs = int64(math.Round(hubBusy))
	res.Cover = int(math.Round(m.Yield.Cover(float64(res.Execs))))
	res.Crashes = m.CrashesPerExec * float64(res.Execs)
	return res, nil
}
