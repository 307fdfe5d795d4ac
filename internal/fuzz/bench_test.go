package fuzz

import (
	"context"
	"sort"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/telemetry"
)

func benchTarget(b *testing.B) *prog.Target {
	b.Helper()
	f := &syzlang.File{}
	for _, n := range []string{"dm", "cec"} {
		f.Merge(corpus.OracleSpec(testCorpus.Handler(n)))
	}
	tgt, err := prog.Compile(f, testCorpus.Env())
	if err != nil {
		b.Fatal(err)
	}
	return tgt
}

// BenchmarkCampaign measures end-to-end serial fuzzing throughput on
// the reusable-VM hot path; execs/sec is 500 / (ns_per_op · 1e-9).
func BenchmarkCampaign(b *testing.B) {
	f := New(benchTarget(b), testKernel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Run(DefaultConfig(500, int64(i)))
	}
}

// BenchmarkCampaignTelemetry is BenchmarkCampaign with the full
// telemetry bundle attached (metrics + flight ring): the A/B against
// BenchmarkCampaign prices the enabled path, and BenchmarkCampaign
// itself — whose config leaves telemetry nil — gates the disabled
// path against the recorded baseline.
func BenchmarkCampaignTelemetry(b *testing.B) {
	reg := telemetry.NewRegistry()
	fr := telemetry.NewFlightRecorder(b.TempDir(), 256, nil)
	f := New(benchTarget(b), testKernel)
	cfg := DefaultConfig(500, 0)
	cfg.Metrics = NewMetrics(reg)
	cfg.Flight = fr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		f.Run(cfg)
	}
}

// BenchmarkCampaignNoTriage isolates the fuzzing loop from the
// crash-minimization pass.
func BenchmarkCampaignNoTriage(b *testing.B) {
	f := New(benchTarget(b), testKernel)
	cfg := DefaultConfig(500, 0)
	cfg.NoTriage = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		f.Run(cfg)
	}
}

// BenchmarkMinimize/deep times triage alone: one op minimizes, on one
// reused VM, every raw crash repro a 6000-exec campaign on the deep
// target finds (the campaign and one warm-up pass run off the clock).
func BenchmarkMinimize(b *testing.B) {
	b.Run("deep", func(b *testing.B) {
		tgt := benchTarget(b)
		cfg := DefaultConfig(6000, 3)
		cfg.NoTriage = true
		crashes := New(tgt, testKernel).Run(cfg).Crashes
		titles := make([]string, 0, len(crashes))
		for title := range crashes {
			titles = append(titles, title)
		}
		sort.Strings(titles)
		repros := make([]*prog.Prog, len(titles))
		for i, title := range titles {
			p, err := prog.Deserialize(tgt, crashes[title].Repro)
			if err != nil {
				b.Fatal(err)
			}
			repros[i] = p
		}
		vm := testKernel.NewVM()
		minimizeAll := func() {
			for i, p := range repros {
				seedpool.Minimize(vm, p, titles[i])
			}
		}
		minimizeAll() // the VM's buffers reach their steady size
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			minimizeAll()
		}
	})
}

// BenchmarkCampaignAdaptive measures the scheduler-driven loop on the
// bundled drivers with the plumbing surface (the tentpole
// configuration); ns/op here prices the bandit bookkeeping.
func BenchmarkCampaignAdaptive(b *testing.B) {
	f := New(plumbedTarget(b, "dm", "cec", "kvm", "kvm_vm", "kvm_vcpu"), testKernel)
	cfg := DefaultConfig(500, 0)
	cfg.NoTriage = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		f.Run(cfg)
	}
}

// BenchmarkCampaignUniform is the ablation twin of
// BenchmarkCampaignAdaptive (uniform operator selection, same target).
func BenchmarkCampaignUniform(b *testing.B) {
	f := New(plumbedTarget(b, "dm", "cec", "kvm", "kvm_vm", "kvm_vcpu"), testKernel)
	cfg := DefaultConfig(500, 0)
	cfg.NoTriage = true
	cfg.UniformOps = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		f.Run(cfg)
	}
}

// BenchmarkCampaignResume measures the warm-start path: each
// iteration loads the corpus store, imports and replays the stored
// seeds, and runs a short campaign on top. The store itself is built
// once outside the timer and read-only during iterations, so every
// iteration does identical work.
func BenchmarkCampaignResume(b *testing.B) {
	dir := b.TempDir()
	f := New(benchTarget(b), testKernel)
	cold := DefaultConfig(2000, 1)
	cold.NoTriage = true
	cold.CorpusDir = dir
	f.Run(cold)
	cfg := DefaultConfig(500, 0)
	cfg.NoTriage = true
	cfg.CorpusDir = dir
	cfg.ReadOnlyCorpus = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		f.Run(cfg)
	}
}

// BenchmarkRunParallel measures the sharded campaign path end to end.
func BenchmarkRunParallel(b *testing.B) {
	f := New(benchTarget(b), testKernel)
	cfg := DefaultConfig(2048, 1)
	cfg.ShardExecs = 512
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := f.RunParallel(context.Background(), cfg, 4); err != nil {
			b.Fatal(err)
		}
	}
}
