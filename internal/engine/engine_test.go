package engine

import (
	"context"
	"testing"

	"kernelgpt/internal/core"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/syzlang"
)

var (
	testCorpus = corpus.Build(corpus.TestConfig())
	ctx        = context.Background()
)

// fingerprint reduces a result to a comparable identity.
func fingerprint(r *core.Result) string {
	if r == nil {
		return "<nil>"
	}
	s := r.Handler.Name
	if r.Valid {
		s += ":valid"
	}
	if r.Spec != nil {
		s += "\n" + syzlang.Format(r.Spec)
	}
	return s
}

// TestWorkerCountInvariance: the engine must produce identical
// results for any pool size, in worklist order.
func TestWorkerCountInvariance(t *testing.T) {
	worklist := testCorpus.Incomplete(corpus.KindDriver)
	if len(worklist) < 2 {
		t.Fatal("test corpus too small")
	}
	base, err := New(testCorpus, WithClient(llm.NewSim("gpt-4", 5))).Generate(ctx, worklist)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := New(testCorpus, WithClient(llm.NewSim("gpt-4", 5)), WithWorkers(workers)).Generate(ctx, worklist)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if fingerprint(got[i]) != fingerprint(base[i]) {
				t.Fatalf("workers=%d: result %d (%s) diverged", workers, i, worklist[i].Name)
			}
		}
	}
}

// TestMatchesSerialGenerator: the facade must agree with driving
// core.Generator by hand, the way the legacy loops did.
func TestMatchesSerialGenerator(t *testing.T) {
	h := testCorpus.Handler("dm")
	gen := core.New(llm.NewSim("gpt-4", 7), testCorpus, core.DefaultOptions())
	want := gen.GenerateFor(ctx, h)
	gen.FollowDependencies(ctx, want, nil)

	got := New(testCorpus, WithClient(llm.NewSim("gpt-4", 7))).GenerateFor(ctx, h)
	if fingerprint(got) != fingerprint(want) {
		t.Fatalf("engine diverged from serial generator:\n%s\nvs\n%s", fingerprint(got), fingerprint(want))
	}
}

// TestCacheDeduplicatesAcrossRuns: with a cache, re-generating the
// same handler must not re-bill the model.
func TestCacheDeduplicatesAcrossRuns(t *testing.T) {
	e := New(testCorpus, WithClient(llm.NewSim("gpt-4", 3)), WithCache(4096))
	h := testCorpus.Handler("dm")
	first := e.GenerateFor(ctx, h)
	afterFirst := e.Usage()
	second := e.GenerateFor(ctx, h)
	afterSecond := e.Usage()

	if fingerprint(first) != fingerprint(second) {
		t.Fatal("cached regeneration changed the result")
	}
	if afterSecond != afterFirst {
		t.Fatalf("second run billed the model: %+v vs %+v", afterSecond, afterFirst)
	}
	st, ok := e.CacheStats()
	if !ok || st.Hits == 0 {
		t.Fatalf("cache stats missing or empty: %+v ok=%v", st, ok)
	}
}

// TestSuiteMergesValidResults mirrors what the cmd binaries consume.
func TestSuiteMergesValidResults(t *testing.T) {
	e := New(testCorpus, WithClient(llm.NewSim("gpt-4", 1)), WithWorkers(4), WithCache(2048))
	drivers, sockets, merged, err := e.Suite(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(drivers) != len(testCorpus.Incomplete(corpus.KindDriver)) ||
		len(sockets) != len(testCorpus.Incomplete(corpus.KindSocket)) {
		t.Fatal("worklist sizes wrong")
	}
	if merged == nil || len(merged.Syscalls) == 0 {
		t.Fatal("merged suite empty")
	}
	if errs := syzlang.Validate(merged, testCorpus.Env()); len(errs) > 0 {
		t.Fatalf("merged suite invalid: %v", errs[0])
	}
	if u := e.Usage(); u.Calls == 0 {
		t.Fatal("no usage recorded")
	}
}

// TestCancellation: a cancelled context yields failed (but non-nil)
// results and the context error, from Generate and from Suite (both
// of whose per-kind slices come back whole).
func TestCancellation(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(testCorpus, WithClient(llm.NewSim("gpt-4", 1)), WithWorkers(2))
	results, err := e.Generate(cctx, testCorpus.Incomplete(corpus.KindDriver))
	if err == nil {
		t.Fatal("want context error")
	}
	drivers, sockets, merged, serr := e.Suite(cctx)
	if serr != cctx.Err() || merged != nil {
		t.Fatalf("Suite returned err %v, merged %v; want the context error and no suite", serr, merged)
	}
	if len(drivers) != len(testCorpus.Incomplete(corpus.KindDriver)) || len(sockets) != len(testCorpus.Incomplete(corpus.KindSocket)) {
		t.Fatalf("Suite returned %d drivers and %d sockets under cancellation", len(drivers), len(sockets))
	}
	for _, rs := range [][]*core.Result{results, drivers, sockets} {
		for _, r := range rs {
			if r == nil {
				t.Fatal("results must never be nil")
			}
			if r.Valid {
				t.Fatal("no generation should succeed under a pre-cancelled context")
			}
		}
	}
}

// TestRepairRoundsOption: the repair loop's settings in
// WithGeneratorOptions must flow through to the pipeline (ubi_ctrl
// needs repair to validate at some seeds; at minimum the options must
// not be ignored).
func TestRepairRoundsOption(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Repair, opts.MaxRepairRounds = false, 0
	e := New(testCorpus, WithClient(llm.NewSim("gpt-4", 2)), WithGeneratorOptions(opts))
	if e.gen.Opts != opts {
		t.Fatalf("generator options %+v, want %+v", e.gen.Opts, opts)
	}
	if res := e.GenerateFor(ctx, testCorpus.Handler("dm")); res.Repaired {
		t.Fatal("repair ran with Repair off")
	}
}
