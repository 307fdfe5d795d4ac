// Package main's bench_test provides one testing.B benchmark per
// table and figure of the paper's evaluation, plus ablation benches
// for the design choices DESIGN.md calls out. Each benchmark builds
// the experiment through the same bench.Runner the benchtables
// command uses, at a reduced-but-representative scale so `go test
// -bench=.` completes in minutes, and reports domain-specific metrics
// (coverage, syscalls, bugs found) alongside ns/op.
//
// Regenerate the paper-scale numbers with: go run ./cmd/benchtables
package main

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"kernelgpt/internal/bench"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// benchOpts sizes the benchmark runs: a mid-scale corpus and budgets
// large enough for the shapes to be visible.
func benchOpts() bench.Options {
	return bench.Options{
		Scale: 0.25, Execs: 12000, PerDriverExecs: 3000,
		Reps: 2, Seed: 1, Model: "gpt-4",
	}
}

var (
	runnerOnce sync.Once
	runner     *bench.Runner
)

func sharedRunner() *bench.Runner {
	runnerOnce.Do(func() { runner = bench.NewRunner(benchOpts()) })
	return runner
}

// metric extracts a numeric cell for b.ReportMetric.
func metric(tb *bench.Table, row, col int) float64 {
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		return 0
	}
	s := strings.Fields(tb.Rows[row][col])
	if len(s) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(s[0], 64)
	return v
}

// BenchmarkTable1 regenerates the handler/specification counts.
func BenchmarkTable1(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.Table1()
	}
	b.ReportMetric(metric(tb, 0, 4), "kgpt-valid-drivers")
	b.ReportMetric(metric(tb, 0, 3), "syzd-valid-drivers")
}

// BenchmarkFigure7 regenerates the missing-spec histogram.
func BenchmarkFigure7(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.Figure7()
	}
	b.ReportMetric(metric(tb, 3, 1), "drivers-over-75pct-missing")
}

// BenchmarkTable2 regenerates the new-syscall counts.
func BenchmarkTable2(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.Table2()
	}
	b.ReportMetric(metric(tb, 2, 3), "kgpt-new-syscalls")
	b.ReportMetric(metric(tb, 2, 1), "syzd-new-syscalls")
}

// BenchmarkTable3 regenerates the whole-suite fuzzing comparison.
func BenchmarkTable3(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.Table3()
	}
	b.ReportMetric(metric(tb, 0, 1), "syzkaller-cov")
	b.ReportMetric(metric(tb, 2, 1), "kernelgpt-cov")
}

// BenchmarkTable4 regenerates the bug-detection table.
func BenchmarkTable4(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.Table4()
	}
	found := 0.0
	for _, row := range tb.Rows {
		if row[4] == "FOUND" {
			found++
		}
	}
	b.ReportMetric(found, "new-bugs-found")
}

// BenchmarkTable5 regenerates the per-driver comparison.
func BenchmarkTable5(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.Table5()
	}
	last := len(tb.Rows) - 1
	b.ReportMetric(metric(tb, last, 2), "syzkaller-total-cov")
	b.ReportMetric(metric(tb, last, 6), "kernelgpt-total-cov")
}

// BenchmarkTable6 regenerates the per-socket comparison.
func BenchmarkTable6(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.Table6()
	}
	last := len(tb.Rows) - 1
	b.ReportMetric(metric(tb, last, 2), "syzkaller-total-cov")
	b.ReportMetric(metric(tb, last, 5), "kernelgpt-total-cov")
}

// BenchmarkAblationIterative regenerates the §5.2.3 prompting
// ablation.
func BenchmarkAblationIterative(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.AblationIterative()
	}
	b.ReportMetric(metric(tb, 0, 1), "iterative-syscalls")
	b.ReportMetric(metric(tb, 1, 1), "all-in-one-syscalls")
}

// BenchmarkAblationModel regenerates the §5.2.3 LLM-choice ablation.
func BenchmarkAblationModel(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.AblationModel()
	}
	for _, row := range tb.Rows {
		name := strings.ReplaceAll(row[0], ".", "") + "-syscalls"
		v, _ := strconv.ParseFloat(row[1], 64)
		b.ReportMetric(v, name)
	}
}

// BenchmarkCorrectnessAudit regenerates the §5.1.3 audit.
func BenchmarkCorrectnessAudit(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.CorrectnessAudit()
	}
	b.ReportMetric(metric(tb, 1, 1), "drivers-no-missing")
}

// BenchmarkTokenCost regenerates the §5.1.1 accounting.
func BenchmarkTokenCost(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.TokenCost()
	}
	b.ReportMetric(metric(tb, 1, 1), "input-tokens")
}

// --- micro-benchmarks for the substrates (ablation / profiling) ---

var microOnce sync.Once
var microCorpus *corpus.Corpus
var microKernel *vkernel.Kernel
var microTarget *prog.Target

func microSetup(b *testing.B) (*corpus.Corpus, *vkernel.Kernel, *prog.Target) {
	b.Helper()
	microOnce.Do(func() {
		microCorpus = corpus.Build(corpus.TestConfig())
		microKernel = vkernel.New(microCorpus)
		spec := corpus.OracleSpec(microCorpus.Handler("dm"))
		spec.Merge(corpus.OracleSpec(microCorpus.Handler("cec")))
		t, err := prog.Compile(spec, microCorpus.Env())
		if err != nil {
			panic(err)
		}
		microTarget = t
	})
	return microCorpus, microKernel, microTarget
}

// BenchmarkExecutor measures virtual-kernel syscall throughput — the
// substrate's equivalent of executor speed.
func BenchmarkExecutor(b *testing.B) {
	_, k, tgt := microSetup(b)
	g := prog.NewGen(tgt, 1)
	progs := make([]*prog.Prog, 64)
	for i := range progs {
		progs[i] = g.Generate(8).Detach()
	}
	vm := k.NewVM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Run(progs[i%len(progs)])
	}
}

// BenchmarkGenerate measures program generation throughput.
func BenchmarkGenerate(b *testing.B) {
	_, _, tgt := microSetup(b)
	g := prog.NewGen(tgt, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(8)
	}
}

// BenchmarkCampaign measures end-to-end fuzzing throughput.
func BenchmarkCampaign(b *testing.B) {
	_, k, tgt := microSetup(b)
	f := fuzz.New(tgt, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Run(fuzz.DefaultConfig(500, int64(i)))
	}
}

// BenchmarkCorpusBuild measures synthetic-kernel construction.
func BenchmarkCorpusBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		corpus.Build(corpus.TestConfig())
	}
}

// BenchmarkAblationRepair regenerates the repair-phase ablation.
func BenchmarkAblationRepair(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.AblationRepair()
	}
	b.ReportMetric(metric(tb, 0, 1), "valid-with-repair")
	b.ReportMetric(metric(tb, 1, 1), "valid-without-repair")
}

// BenchmarkAblationLocality regenerates the fuzzer-locality ablation.
func BenchmarkAblationLocality(b *testing.B) {
	r := sharedRunner()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = r.AblationLocality()
	}
	b.ReportMetric(metric(tb, 0, 2), "bugs-with-locality")
	b.ReportMetric(metric(tb, 1, 2), "bugs-uniform")
}
