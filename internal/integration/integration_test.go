// Package integration tests the full pipeline across module
// boundaries: corpus → extractor → KernelGPT → validator → compiler →
// fuzzer → virtual kernel, plus the end-to-end properties the paper's
// claims rest on.
package integration

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kernelgpt/internal/baseline"
	"kernelgpt/internal/core"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/vkernel"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

var (
	testCorpus = corpus.Build(corpus.TestConfig())
	testKernel = vkernel.New(testCorpus)
	ctx        = context.Background()
)

// TestEndToEndDeviceMapperCVE is the headline integration: generate
// the dm spec with the full pipeline, fuzz with it, and reproduce
// CVE-2024-23851.
func TestEndToEndDeviceMapperCVE(t *testing.T) {
	gen := core.New(llm.NewSim("gpt-4", 1), testCorpus, core.DefaultOptions())
	res := gen.GenerateFor(ctx, testCorpus.Handler("dm"))
	if !res.Valid {
		t.Fatalf("generation failed: %v", res.RemainingErrors)
	}
	tgt, err := prog.Compile(res.Spec, testCorpus.Env())
	if err != nil {
		t.Fatal(err)
	}
	stats := fuzz.New(tgt, testKernel).Run(fuzz.DefaultConfig(12000, 2))
	if _, ok := stats.Crashes["kmalloc bug in ctl_ioctl"]; !ok {
		t.Fatalf("CVE-2024-23851 not reproduced; crashes: %v", stats.CrashTitles())
	}
}

// TestGeneratedBeatsBaselinePerDriver checks the Table 5 mechanism on
// the quirky drivers: the generated spec out-covers the static
// baseline where quirks apply.
func TestGeneratedBeatsBaselinePerDriver(t *testing.T) {
	gen := core.New(llm.NewSim("gpt-4", 2), testCorpus, core.DefaultOptions())
	sd := baseline.New(testCorpus)
	for _, name := range []string{"dm", "cec", "controlC0"} {
		h := testCorpus.Handler(name)
		kg := gen.GenerateFor(ctx, h)
		if !kg.Valid {
			t.Fatalf("%s: generation failed", name)
		}
		kgCov := coverage(t, kg.Spec, 3)
		base := sd.GenerateFor(h)
		var sdCov int
		if base.Spec != nil {
			sdCov = coverage(t, base.Spec, 3)
		}
		if kgCov <= sdCov {
			t.Fatalf("%s: KernelGPT cov %d did not beat SyzDescribe cov %d", name, kgCov, sdCov)
		}
	}
}

func coverage(t *testing.T, spec *syzlang.File, seed int64) int {
	t.Helper()
	if errs := syzlang.Validate(spec, testCorpus.Env()); len(errs) > 0 {
		return 0
	}
	tgt, err := prog.Compile(spec, testCorpus.Env())
	if err != nil {
		return 0
	}
	return fuzz.New(tgt, testKernel).Run(fuzz.DefaultConfig(3000, seed)).CoverCount()
}

// TestOracleUpperBounds checks the generated spec never covers more
// than the ground-truth oracle spec (it can at best match it).
func TestOracleUpperBounds(t *testing.T) {
	gen := core.New(llm.NewSim("gpt-4", 3), testCorpus, core.DefaultOptions())
	for _, name := range []string{"cec", "ubi_ctrl"} {
		h := testCorpus.Handler(name)
		kg := gen.GenerateFor(ctx, h)
		if !kg.Valid {
			continue
		}
		kgCov := coverage(t, kg.Spec, 5)
		oracleCov := coverage(t, corpus.OracleSpec(h), 5)
		if kgCov > oracleCov+oracleCov/10 {
			t.Fatalf("%s: generated spec (%d) covers more than the oracle (%d)?",
				name, kgCov, oracleCov)
		}
	}
}

// checkGolden compares got with testdata/name byte for byte. The
// files pin the pipeline's integration fingerprints across commits;
// re-recording one (-update) is a reviewed fingerprint bump.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		t.Fatalf("diverged from %s:\n got %s\nwant %s", path, got, want)
	}
}

// specDigest is the sha256 of a suite's formatted text.
func specDigest(f *syzlang.File) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(syzlang.Format(f))))
}

// TestWholePipelineDeterminism re-runs generation + fuzzing and
// expects byte-identical specs and identical campaign results, equal
// to the spec digest and cover count testdata/determinism.txt records.
func TestWholePipelineDeterminism(t *testing.T) {
	run := func() (string, int) {
		c := corpus.Build(corpus.TestConfig())
		k := vkernel.New(c)
		gen := core.New(llm.NewSim("gpt-4", 9), c, core.DefaultOptions())
		res := gen.GenerateFor(ctx, c.Handler("cec"))
		if res.Spec == nil {
			t.Fatal("nil spec")
		}
		text := syzlang.Format(res.Spec)
		tgt, err := prog.Compile(res.Spec, c.Env())
		if err != nil {
			t.Fatal(err)
		}
		cov := fuzz.New(tgt, k).Run(fuzz.DefaultConfig(2000, 4)).CoverCount()
		return text, cov
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 {
		t.Fatal("spec generation not deterministic across corpus rebuilds")
	}
	if c1 != c2 {
		t.Fatalf("campaign not deterministic: %d vs %d", c1, c2)
	}
	checkGolden(t, "determinism.txt", fmt.Sprintf("cec gpt-4 seed=9 spec=%x cover=%d\n", sha256.Sum256([]byte(t1)), c1))
}

// TestHumanSuiteCannotReachNewBugs verifies the Table 4 exclusivity
// property at test scale: fuzzing only with the existing suite never
// triggers a new (non-Known) bug.
func TestHumanSuiteCannotReachNewBugs(t *testing.T) {
	suite := testCorpus.ExistingSuite()
	tgt, err := prog.Compile(suite, testCorpus.Env())
	if err != nil {
		t.Fatal(err)
	}
	stats := fuzz.New(tgt, testKernel).Run(fuzz.DefaultConfig(15000, 6))
	newBugs := testCorpus.AllBugs()
	for title := range stats.Crashes {
		if _, isNew := newBugs[title]; isNew {
			t.Fatalf("existing suite reached new bug %q", title)
		}
	}
}

// TestMergedSuitesCompile compiles every suite combination the bench
// harness uses; testdata/merged_suites.txt records the digest of each
// suite and of the baseline and generated driver suites they merge.
func TestMergedSuitesCompile(t *testing.T) {
	existing := testCorpus.ExistingSuite()
	sd := baseline.MergeSpecs(baseline.New(testCorpus).GenerateAll(testCorpus.Incomplete(corpus.KindDriver)))
	gen := core.New(llm.NewSim("gpt-4", 7), testCorpus, core.DefaultOptions())
	var results []*core.Result
	for _, h := range testCorpus.Incomplete(corpus.KindDriver) {
		results = append(results, gen.GenerateFor(ctx, h))
	}
	kg := core.MergeSpecs(results)
	digests := fmt.Sprintf("syzdescribe %s\nkernelgpt %s\n", specDigest(sd), specDigest(kg))
	for i, f := range []*syzlang.File{
		existing,
		syzlang.MergeDedup(existing, sd),
		syzlang.MergeDedup(existing, kg),
	} {
		if errs := syzlang.Validate(f, testCorpus.Env()); len(errs) > 0 {
			t.Fatalf("suite %d invalid: %v", i, errs[0])
		}
		if _, err := prog.Compile(f, testCorpus.Env()); err != nil {
			t.Fatalf("suite %d does not compile: %v", i, err)
		}
		digests += fmt.Sprintf("suite%d %s\n", i, specDigest(f))
	}
	checkGolden(t, "merged_suites.txt", digests)
}

// TestReadableNames spot-checks the §5.1.1 readability claim: the
// generated spec uses the kernel's own macro and struct names, while
// the baseline uses numeric identifiers.
func TestReadableNames(t *testing.T) {
	gen := core.New(llm.NewSim("gpt-4", 8), testCorpus, core.DefaultOptions())
	kg := gen.GenerateFor(ctx, testCorpus.Handler("cec"))
	if !kg.Valid {
		t.Fatal("cec generation failed")
	}
	kgText := syzlang.Format(kg.Spec)
	if !strings.Contains(kgText, "CEC_TRANSMIT") || !strings.Contains(kgText, "cec_msg") {
		t.Fatalf("generated spec lost readable names:\n%s", kgText)
	}
	sd := baseline.New(testCorpus).GenerateFor(testCorpus.Handler("loop0"))
	if sd.Spec != nil && len(sd.Spec.Structs) > 0 {
		if !strings.Contains(syzlang.Format(sd.Spec), "field_0") {
			t.Fatal("baseline should use positional field names")
		}
	}
}

// TestIterationBudgetRespected verifies Algorithm 1's MAX_ITER bound.
func TestIterationBudgetRespected(t *testing.T) {
	opts := core.DefaultOptions()
	opts.MaxIter = 2
	opts.Repair = false
	gen := core.New(llm.NewSim("gpt-4", 10), testCorpus, opts)
	res := gen.GenerateFor(ctx, testCorpus.Handler("dm"))
	// dm needs ≥3 identifier rounds (regs → unlocked → dm_ioctl);
	// with MaxIter=2 the command table is never reached.
	if res.NewSyscalls() > 0 {
		t.Fatalf("MaxIter=2 should starve the dm analysis, got %d syscalls", res.NewSyscalls())
	}
	if res.Iterations > 2+2+1 {
		t.Fatalf("iteration budget exceeded: %d", res.Iterations)
	}
}
