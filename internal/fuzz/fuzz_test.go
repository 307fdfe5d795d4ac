package fuzz

import (
	"context"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/vkernel"
)

var (
	testCorpus = corpus.Build(corpus.TestConfig())
	testKernel = vkernel.New(testCorpus)
)

func targetFor(t *testing.T, names ...string) *prog.Target {
	t.Helper()
	f := &syzlang.File{}
	for _, n := range names {
		h := testCorpus.Handler(n)
		if h == nil {
			t.Fatalf("no handler %q", n)
		}
		f.Merge(corpus.OracleSpec(h))
	}
	tgt, err := prog.Compile(f, testCorpus.Env())
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func TestCampaignFindsCoverage(t *testing.T) {
	f := New(targetFor(t, "dm", "cec"), testKernel)
	stats := f.Run(DefaultConfig(2000, 1))
	if stats.CoverCount() < 50 {
		t.Fatalf("campaign covered only %d blocks", stats.CoverCount())
	}
	if stats.CorpusSize == 0 {
		t.Fatal("no seeds retained")
	}
	if stats.Execs != 2000 {
		t.Fatalf("execs = %d", stats.Execs)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	f := New(targetFor(t, "dm"), testKernel)
	a := f.Run(DefaultConfig(800, 7))
	b := f.Run(DefaultConfig(800, 7))
	if a.CoverCount() != b.CoverCount() || a.UniqueCrashes() != b.UniqueCrashes() {
		t.Fatalf("campaign not deterministic: %d/%d vs %d/%d",
			a.CoverCount(), a.UniqueCrashes(), b.CoverCount(), b.UniqueCrashes())
	}
}

func TestCampaignFindsDMBugs(t *testing.T) {
	f := New(targetFor(t, "dm"), testKernel)
	stats := f.Run(DefaultConfig(6000, 3))
	if stats.UniqueCrashes() == 0 {
		t.Fatal("oracle-spec campaign found no dm crashes")
	}
	if _, ok := stats.Crashes["kmalloc bug in ctl_ioctl"]; !ok {
		t.Fatalf("ctl_ioctl bug not found; got %v", stats.CrashTitles())
	}
	cr := stats.Crashes["kmalloc bug in ctl_ioctl"]
	if cr.Repro == "" || cr.Count == 0 {
		t.Fatalf("crash report incomplete: %+v", cr)
	}
}

func TestCoverageGuidanceBeatsBlindGeneration(t *testing.T) {
	tgt := targetFor(t, "cec", "dm", "kvm", "kvm_vm", "kvm_vcpu")
	f := New(tgt, testKernel)
	guided := f.Run(Config{Execs: 3000, Seed: 5, MaxCalls: 8, MutateBias: 0.7})
	blind := f.Run(Config{Execs: 3000, Seed: 5, MaxCalls: 8, MutateBias: 0})
	// Mutation of coverage-increasing seeds should at least match
	// blind generation (stateful deep paths need mutation chains).
	if float64(guided.CoverCount()) < float64(blind.CoverCount())*0.9 {
		t.Fatalf("guided %d much worse than blind %d", guided.CoverCount(), blind.CoverCount())
	}
}

func TestRepetitionsIndependent(t *testing.T) {
	f := New(targetFor(t, "cec"), testKernel)
	reps := f.RunRepetitions(context.Background(), DefaultConfig(500, 11), 3)
	if len(reps) != 3 {
		t.Fatal("wrong rep count")
	}
	if MeanCover(reps) <= 0 {
		t.Fatal("zero mean coverage")
	}
	// Union ≥ each individual.
	union := UnionCover(reps)
	for i, r := range reps {
		if union.Count() < r.CoverCount() {
			t.Fatalf("rep %d larger than union", i)
		}
	}
}

// TestEnabledRestriction: a campaign generates from its target's
// syscalls only, so a run restricted to some syscalls compiles just
// those.
func TestEnabledRestriction(t *testing.T) {
	dm := testCorpus.Handler("dm")
	spec := *corpus.OracleSpec(dm)
	spec.Syscalls = nil
	for _, sc := range corpus.OracleSpec(dm).Syscalls {
		if sc.Name() == "openat$dm" {
			spec.Syscalls = append(spec.Syscalls, sc)
		}
	}
	tgt, err := prog.Compile(&spec, testCorpus.Env())
	if err != nil {
		t.Fatal(err)
	}
	if len(tgt.Syscalls) != 1 {
		t.Fatalf("restricted target has %d syscalls, want openat$dm alone", len(tgt.Syscalls))
	}
	stats := New(tgt, testKernel).Run(DefaultConfig(1000, 13))
	// Open-only campaigns cover at most open blocks + generic entry.
	if stats.CoverCount() > dm.OpenBlocks+3 {
		t.Fatalf("restriction leaked: %d blocks", stats.CoverCount())
	}
}

func TestUniqueTo(t *testing.T) {
	a, b := vkernel.NewCoverSet(8), vkernel.NewCoverSet(8)
	for _, blk := range []vkernel.BlockID{1, 2, 3} {
		a.Add(blk)
	}
	b.Add(2)
	if got := UniqueTo(a, b); got != 2 {
		t.Fatalf("UniqueTo = %d, want 2", got)
	}
	if got := UniqueTo(b, a); got != 0 {
		t.Fatalf("UniqueTo = %d, want 0", got)
	}
}

func TestBetterSpecsCoverMore(t *testing.T) {
	// The central mechanism of the whole evaluation: the oracle spec
	// (KernelGPT-quality) must out-cover a degraded spec (wrong
	// device name) on the same budget.
	good := New(targetFor(t, "dm"), testKernel).Run(DefaultConfig(1500, 17))

	degraded := `
resource fd_dmx[fd]
openat$dmx(fd const[AT_FDCWD], file ptr[in, string["/dev/device-mapper"]], flags const[O_RDWR], mode const[0]) fd_dmx
ioctl$DMX(fd fd_dmx, cmd const[2], arg ptr[in, array[int8]])
`
	fl, errs := syzlang.Parse(degraded)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	tgt, err := prog.Compile(fl, testCorpus.Env())
	if err != nil {
		t.Fatal(err)
	}
	bad := New(tgt, testKernel).Run(DefaultConfig(1500, 17))
	if good.CoverCount() <= bad.CoverCount() {
		t.Fatalf("correct spec (%d) did not beat wrong spec (%d)",
			good.CoverCount(), bad.CoverCount())
	}
}
