package sim

import (
	"testing"
	"time"
)

// testModel is a hand-built model with round coefficients, so
// simulated timings are easy to reason about.
func testModel() *Model {
	return &Model{
		Cost: CostModel{
			StepNs: 100_000, CheckpointNs: 500_000,
			SyncBaseNs: 1_000_000, HubServiceNs: 400_000,
		},
		Yield:          YieldModel{Cmax: 1000, K: 2000, B: 0.9},
		CrashesPerExec: 1e-4,
	}
}

func TestSimulateDeterministic(t *testing.T) {
	m := testModel()
	cfg := FleetConfig{Workers: 4, Execs: 50_000, ShardExecs: 2048, Hub: true, Checkpoint: true, Seed: 7}
	a, err := Simulate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config simulated differently:\n%+v\n%+v", a, b)
	}
	c, err := Simulate(m, FleetConfig{Workers: 4, Execs: 50_000, ShardExecs: 2048, Hub: true, Checkpoint: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.WallNs == c.WallNs {
		t.Fatal("different seeds produced identical makespans (jitter not applied)")
	}
}

func TestSimulateScalesWithWorkers(t *testing.T) {
	m := testModel()
	prev := int64(1 << 62)
	for _, w := range []int{1, 2, 4, 8} {
		r, err := Simulate(m, FleetConfig{Workers: w, Execs: 64_000, ShardExecs: 2048, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.Execs != 64_000 {
			t.Fatalf("workers=%d dropped execs: %d", w, r.Execs)
		}
		if r.WallNs > prev {
			t.Fatalf("workers=%d slower than fewer workers: %d > %d", w, r.WallNs, prev)
		}
		prev = r.WallNs
		// Work is conserved: the same budget costs the same busy time
		// within jitter, regardless of the pool size.
		wantWork := int64(64_000 * 100_000)
		if diff := r.WorkNs - wantWork; diff < -wantWork/20 || diff > wantWork/20 {
			t.Fatalf("workers=%d work time %d far from %d", w, r.WorkNs, wantWork)
		}
	}
	// A serial fleet's wall clock is its work time exactly.
	r1, _ := Simulate(m, FleetConfig{Workers: 1, Execs: 64_000, ShardExecs: 2048, Seed: 1})
	if r1.WallNs != r1.WorkNs {
		t.Fatalf("serial wall %d != work %d", r1.WallNs, r1.WorkNs)
	}
}

func TestSimulateHubAccounting(t *testing.T) {
	m := testModel()
	r, err := Simulate(m, FleetConfig{Workers: 3, Execs: 16_384, ShardExecs: 2048, Hub: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One sync per unit plus the final push.
	if wantSyncs := r.Units + 1; r.Syncs != wantSyncs {
		t.Fatalf("want %d syncs, got %d", wantSyncs, r.Syncs)
	}
	if want := int64(float64(r.Syncs) * m.Cost.HubServiceNs); r.HubBusyNs != want {
		t.Fatalf("hub busy %d != syncs×service %d", r.HubBusyNs, want)
	}
	// Every exchange costs at least service + client base.
	minPer := m.Cost.HubServiceNs + m.Cost.SyncBaseNs
	if r.SyncNs < int64(float64(r.Syncs)*minPer) {
		t.Fatalf("sync time %d below the contention-free floor", r.SyncNs)
	}
	detached, _ := Simulate(m, FleetConfig{Workers: 3, Execs: 16_384, ShardExecs: 2048, Seed: 2})
	if detached.Syncs != 0 || detached.SyncNs != 0 || detached.WallNs >= r.WallNs {
		t.Fatalf("hub attachment must cost wall time: detached %+v vs attached %+v", detached, r)
	}
}

func TestSimulatePerByteHubCost(t *testing.T) {
	// The planner-visible win of a compact wire format: halving the
	// payload halves the per-byte share of hub busy time.
	m := testModel()
	m.Cost.HubPerByteNs = 10
	m.BytesPerSync = 4096
	cfg := FleetConfig{Workers: 3, Execs: 16_384, ShardExecs: 2048, Hub: true, Seed: 2}
	fat, err := Simulate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perSvc := m.Cost.HubServiceNs + m.Cost.HubPerByteNs*m.BytesPerSync
	if want := int64(float64(fat.Syncs) * perSvc); fat.HubBusyNs != want {
		t.Fatalf("hub busy %d != syncs×(base+bytes) %d", fat.HubBusyNs, want)
	}
	lean := *m
	lean.BytesPerSync = m.BytesPerSync / 2
	slim, err := Simulate(&lean, cfg)
	if err != nil {
		t.Fatal(err)
	}
	saved := float64(fat.Syncs) * m.Cost.HubPerByteNs * m.BytesPerSync / 2
	if got := fat.HubBusyNs - slim.HubBusyNs; got != int64(saved) {
		t.Fatalf("halved payload saved %d hub-busy ns, want %d", got, int64(saved))
	}
	if slim.WallNs >= fat.WallNs {
		t.Fatalf("smaller payloads must shorten the campaign: %d vs %d", slim.WallNs, fat.WallNs)
	}
}

func TestSimulateDeadlineTruncates(t *testing.T) {
	m := testModel()
	full, err := Simulate(m, FleetConfig{Workers: 2, Execs: 40_000, ShardExecs: 2048, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Simulate(m, FleetConfig{Workers: 2, Execs: 40_000, ShardExecs: 2048, Seed: 3, DeadlineNs: full.WallNs / 2})
	if err != nil {
		t.Fatal(err)
	}
	if !cut.Truncated || cut.Execs >= full.Execs || cut.WallNs > full.WallNs/2 {
		t.Fatalf("deadline did not truncate: full %+v, cut %+v", full, cut)
	}
	// Throughput is roughly preserved: half the window, about half
	// the execs (proration + tail effects allow slack).
	if cut.Execs < full.Execs/3 {
		t.Fatalf("truncated run lost too many execs: %d of %d", cut.Execs, full.Execs)
	}
	if cover := m.Yield.Cover(float64(cut.Execs)); int(cover+1) < cut.Cover {
		t.Fatalf("cover %d above the yield curve %f", cut.Cover, cover)
	}
}

func TestMinWorkers(t *testing.T) {
	m := testModel()
	base := FleetConfig{ShardExecs: 2048, Seed: 5}
	// Pick a target well inside the asymptote and a deadline that a
	// mid-size pool can make.
	need := m.Yield.Execs(800)
	deadline := int64(need * m.Cost.StepNs / 3)
	plan, err := MinWorkers(m, base, 800, deadline, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatalf("feasible target reported infeasible: %+v", plan)
	}
	if plan.Result.Cover < 800 || plan.Result.WallNs > deadline {
		t.Fatalf("plan result misses the target: %+v", plan.Result)
	}
	// Minimality: one fewer worker must miss the deadline.
	if plan.Workers > 1 {
		cfg := base
		cfg.Workers = plan.Workers - 1
		cfg.Execs = plan.ExecsNeeded
		r, err := Simulate(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.WallNs <= deadline {
			t.Fatalf("workers=%d already makes the deadline, MinWorkers said %d", cfg.Workers, plan.Workers)
		}
	}
	// An unreachable target is infeasible, not an error.
	impossible, err := MinWorkers(m, base, int(m.Yield.Cmax)+1, deadline, 16)
	if err != nil || impossible.Feasible {
		t.Fatalf("target beyond the asymptote: %+v err=%v", impossible, err)
	}
}

func TestSweepManyConfigsFast(t *testing.T) {
	m := testModel()
	var cfgs []FleetConfig
	for w := 1; w <= 8; w++ {
		for _, grain := range []int{1024, 2048, 4096, 8192} {
			for _, hub := range []bool{false, true} {
				cfgs = append(cfgs, FleetConfig{Workers: w, Execs: 100_000, ShardExecs: grain, Hub: hub, Seed: 6})
			}
		}
	}
	if len(cfgs) < 50 {
		t.Fatalf("sweep too small: %d", len(cfgs))
	}
	start := time.Now()
	results, err := Sweep(m, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("sweep of %d configs took %v (budget 1s)", len(cfgs), d)
	}
	if len(results) != len(cfgs) {
		t.Fatalf("sweep returned %d results for %d configs", len(results), len(cfgs))
	}
	for i, r := range results {
		if r.Execs != 100_000 || r.WallNs <= 0 {
			t.Fatalf("config %d degenerate result: %+v", i, r)
		}
	}
}
