package sim_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/sim"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/vkernel"
)

// virtualTime is the campaign's only clock in this test: reading it
// never advances it, charging a phase does. Atomic because the driver
// reads the clock from whichever goroutine runs a unit.
type virtualTime struct{ ns atomic.Int64 }

func (v *virtualTime) now() time.Time { return time.Unix(1_700_000_000, v.ns.Load()) }

// costedVM charges every program execution — candidates, warm-start
// replays and triage trials alike — a fixed virtual cost.
type costedVM struct {
	vm   *vkernel.VM
	time *virtualTime
	cost time.Duration
}

func (x *costedVM) Run(p *prog.Prog) *vkernel.Result {
	x.time.ns.Add(int64(x.cost))
	return x.vm.Run(p)
}

// costedHub is a hub that answers every exchange with nothing after a
// fixed virtual round trip.
type costedHub struct {
	time *virtualTime
	cost time.Duration
}

func (h *costedHub) Sync(context.Context, fuzz.SyncState) ([]seedpool.SeedState, error) {
	h.time.ns.Add(int64(h.cost))
	return nil, nil
}

// TestValidateAgainstRealCampaign is the ISSUE-6 acceptance gate on
// virtual time: a real sharded campaign — the real step loop, driver
// and triage, on a clock that advances only by a fixed cost per
// executed program and per hub exchange — produces a Progress trace
// and timing stats; `syzplan fit`'s pipeline (yield fit → calibration)
// builds a model from them; and Validate must reproduce the run. With
// no machine in the loop what is asserted is the simulator's structure
// — unit decomposition, sync cadence, the campaign-end push, the yield
// curve — so the bars are tight (exec and wall ±1%: the residue is the
// simulator's ±2% per-unit jitter; cover exact) and the run is
// bit-reproducible. The wall-clock comparison
// of a 3-worker campaign against a real hub lives in the CI
// `sim-validate` job.
func TestValidateAgainstRealCampaign(t *testing.T) {
	c := corpus.Build(corpus.TestConfig())
	kernel := vkernel.New(c)
	f := &syzlang.File{}
	for _, n := range []string{"dm", "cec"} {
		h := c.Handler(n)
		if h == nil {
			t.Fatalf("no handler %q", n)
		}
		f.Merge(corpus.OracleSpec(h))
	}
	tgt, err := prog.Compile(f, c.Env())
	if err != nil {
		t.Fatal(err)
	}

	const (
		execs      = 12_000
		shardExecs = 1024
		seed       = int64(5)
		execCost   = 40 * time.Microsecond
		syncCost   = 3 * time.Millisecond
	)
	vt := &virtualTime{}
	cfg := fuzz.DefaultConfig(execs, seed)
	cfg.ShardExecs = shardExecs
	cfg.Clock = vt.now
	cfg.Hub = &costedHub{time: vt, cost: syncCost}
	var trace []sim.TracePoint
	cfg.Progress = func(p fuzz.Progress) {
		trace = append(trace, sim.TracePoint{
			ElapsedNs: p.ElapsedNs, Execs: p.Execs, Cover: p.Cover, Crashes: p.Crashes,
		})
	}
	fz := fuzz.New(tgt, kernel)
	fz.NewExecutor = func() vkernel.Executor {
		return &costedVM{vm: kernel.NewVM(), time: vt, cost: execCost}
	}
	stats, err := fz.RunParallel(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Execs != execs || stats.CoverCount() == 0 {
		t.Fatalf("campaign degenerate: execs=%d cover=%d", stats.Execs, stats.CoverCount())
	}
	units := (execs + shardExecs - 1) / shardExecs
	if stats.Syncs != units+1 || stats.SyncTime != time.Duration(stats.Syncs)*syncCost {
		t.Fatalf("sync cadence: %d exchanges in %v, want one per unit plus the final push (%d) at %v each",
			stats.Syncs, stats.SyncTime, units+1, syncCost)
	}

	rec := sim.RunRecord{
		Workers: 1, ShardExecs: shardExecs, Seed: seed, Hub: true,
		Execs: stats.Execs, Cover: stats.CoverCount(), Crashes: stats.UniqueCrashes(),
		ElapsedNs: stats.Elapsed.Nanoseconds(),
		WorkNs:    stats.WorkTime.Nanoseconds(),
		SyncNs:    stats.SyncTime.Nanoseconds(),
		Syncs:     stats.Syncs,
	}

	buildModel := func() *sim.Model {
		t.Helper()
		yield, err := sim.FitYield(trace)
		if err != nil {
			t.Fatal(err)
		}
		m := &sim.Model{Yield: yield}
		m.Calibrate(rec)
		return m
	}
	m := buildModel()
	t.Logf("rec: %+v", rec)
	t.Logf("model: %+v", m)

	const tol = 0.01
	v, err := sim.Validate(m, rec, tol, tol, tol)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("real: execs=%d cover=%d elapsed=%dms; predicted: execs=%d cover=%d wall=%dms (errors exec=%.3f%% cover=%.3f%% wall=%.3f%%)",
		rec.Execs, rec.Cover, rec.ElapsedNs/1e6,
		v.PredExecs, v.PredCover, v.PredWallNs/1e6,
		100*v.ExecErr, 100*v.CoverErr, 100*v.WallErr)
	if !v.Pass {
		t.Errorf("prediction outside ±1%%: %v", v.Failures)
	}
	if v.PredCover != rec.Cover {
		t.Errorf("predicted cover %d, campaign covered %d", v.PredCover, rec.Cover)
	}

	// Determinism per seed: refit from the same trace and revalidate —
	// the model and every prediction must be bit-identical.
	m2 := buildModel()
	if *m2 != *m {
		t.Fatalf("refit produced a different model:\n%+v\n%+v", m, m2)
	}
	v2, err := sim.Validate(m2, rec, tol, tol, tol)
	if err != nil {
		t.Fatal(err)
	}
	if v2.PredExecs != v.PredExecs || v2.PredCover != v.PredCover || v2.PredWallNs != v.PredWallNs {
		t.Fatalf("predictions not deterministic: %+v vs %+v", v, v2)
	}
}
