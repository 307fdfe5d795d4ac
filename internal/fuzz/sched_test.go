package fuzz

import (
	"context"
	"reflect"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
)

// plumbedTarget compiles the oracle specs of the bundled drivers plus
// the fd-plumbing/mmap surface — the expanded scenario space the
// adaptive scheduler is measured on.
func plumbedTarget(t testing.TB, names ...string) *prog.Target {
	t.Helper()
	files := []*syzlang.File{}
	for _, n := range names {
		h := testCorpus.Handler(n)
		if h == nil {
			t.Fatalf("no handler %q", n)
		}
		files = append(files, corpus.OracleSpec(h))
	}
	pf, err := testCorpus.PlumbingSpecFor(names...)
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, pf)
	tgt, err := prog.Compile(syzlang.MergeDedup(files...), testCorpus.Env())
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// bundledDrivers is the acceptance target: the hand-modeled bundled
// drivers (the paper's running examples plus the kvm secondary-fd
// family) with the fd-plumbing/mmap surface merged in.
var bundledDrivers = []string{"dm", "cec", "kvm", "kvm_vm", "kvm_vcpu"}

// TestAdaptiveBeatsUniform is the tentpole acceptance check: on the
// bundled drivers, the adaptive operator scheduler must reach
// strictly more unique coverage per 10k-exec campaign than
// uniform-random operator selection with the identical budget and
// seeds, measured over the paper's standard 3 repetitions.
func TestAdaptiveBeatsUniform(t *testing.T) {
	f := New(plumbedTarget(t, bundledDrivers...), testKernel)
	cfg := DefaultConfig(10_000, 1)
	cfg.NoTriage = true

	adaptive := f.RunRepetitions(context.Background(), cfg, 3)

	ucfg := cfg
	ucfg.UniformOps = true
	uniform := f.RunRepetitions(context.Background(), ucfg, 3)

	am, um := MeanCover(adaptive), MeanCover(uniform)
	t.Logf("adaptive mean cov=%.1f uniform mean cov=%.1f", am, um)
	if am <= um {
		t.Fatalf("adaptive scheduler (%.1f blocks) did not beat uniform baseline (%.1f blocks)", am, um)
	}
}

// TestAdaptiveShardInvariance: the scheduler is per-unit state, so
// the worker-count invariance guarantee must survive it — including
// the merged per-operator stats.
func TestAdaptiveShardInvariance(t *testing.T) {
	f := New(plumbedTarget(t, "dm"), testKernel)
	cfg := DefaultConfig(4096, 11)
	cfg.ShardExecs = 1024
	base, err := f.RunParallel(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantCov, wantCrashes := mergedView(base)
	for _, shards := range []int{2, 4} {
		got, err := f.RunParallel(context.Background(), cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		cov, crashes := mergedView(got)
		if !reflect.DeepEqual(cov, wantCov) || !reflect.DeepEqual(crashes, wantCrashes) {
			t.Fatalf("shards=%d: adaptive campaign diverged", shards)
		}
		if !reflect.DeepEqual(got.Ops, base.Ops) {
			t.Fatalf("shards=%d: operator stats diverged:\n%+v\nvs\n%+v", shards, got.Ops, base.Ops)
		}
	}
}

// TestOpStatsAccounting: every mutation is credited to exactly one
// operator, and the operator set matches the canonical roster.
func TestOpStatsAccounting(t *testing.T) {
	f := New(plumbedTarget(t, "dm"), testKernel)
	stats := f.Run(DefaultConfig(2000, 3))
	ops := prog.DefaultOperators()
	if len(stats.Ops) != len(ops) {
		t.Fatalf("want %d operator entries, got %d", len(ops), len(stats.Ops))
	}
	totalPicks, picks := 0, map[string]int{}
	for i, op := range ops {
		if stats.Ops[i].Name != op.Name() {
			t.Fatalf("operator order diverged: %s vs %s", stats.Ops[i].Name, op.Name())
		}
		totalPicks += stats.Ops[i].Picks
		picks[op.Name()] = stats.Ops[i].Picks
	}
	if totalPicks == 0 || totalPicks >= stats.Execs {
		t.Fatalf("implausible mutation count %d of %d execs", totalPicks, stats.Execs)
	}
	if picks["mutateArg"] == 0 {
		t.Fatal("mutateArg never picked in 2000 execs")
	}
}

// TestProgressCarriesOpSnapshots: serial and sharded campaigns expose
// scheduler snapshots through Config.Progress.
func TestProgressCarriesOpSnapshots(t *testing.T) {
	f := New(plumbedTarget(t, "dm"), testKernel)
	cfg := DefaultConfig(4096, 5)
	cfg.ShardExecs = 2048
	var sawOps bool
	cfg.Progress = func(p Progress) {
		for _, op := range p.Ops {
			if op.Picks > 0 {
				sawOps = true
			}
		}
	}
	if _, err := f.RunParallel(context.Background(), cfg, 2); err != nil {
		t.Fatal(err)
	}
	if !sawOps {
		t.Fatal("no progress update carried operator stats")
	}
}
