package fuzz

import (
	"context"
	"runtime"
	"testing"
)

// raceEnabled reports a race-detector build, whose allocations are
// not the product's.
var raceEnabled bool

// TestCampaignStepAllocs is the loop-level alloc-regression guard:
// the amortized allocation count of one campaign step (seed pick,
// mutation, compile, compiled exec, observe, pool bookkeeping) must
// stay within budget so alloc creep in the hot loop fails go test,
// not just the bench gate. Candidates share their seed's calls and
// path-copy what they change into the Gen's scratch arena, lowering
// copies cached payloads into a recycled ExecProg, the exec and the
// scheduler's weight vector are allocation-free, and so is a crashing
// exec (the kernel returns the bug's one record); what is left is paid
// per admitted seed (the copy of its owned calls, one slab each, and
// its payload cache) and per new crash title. It reads ~0.106/exec
// (0.163 while every crashing exec allocated its report, 1.3 while
// every step also allocated the weight vector, 250 before the scratch
// arena); the budget leaves about 25 % headroom.
func TestCampaignStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const execs = 4000
	f := New(plumbedTarget(t, "dm", "cec"), testKernel)
	cfg := DefaultConfig(execs, 1)
	cfg.NoTriage = true
	f.Run(cfg) // warm process-level lazy state
	allocs := testing.AllocsPerRun(2, func() { f.Run(cfg) })
	per := allocs / execs
	t.Logf("campaign step: %.3f allocs/exec (%.0f total)", per, allocs)
	if per > 0.133 {
		t.Fatalf("campaign step allocates %.3f/exec, budget is 0.133", per)
	}
}

// TestShardedCampaignByteAllocs budgets the bytes a short sharded
// campaign allocates per exec, triage included. Every unit starts from
// an empty pool, so most of its execs run in the early phase where
// nearly every candidate is admitted and every crash title is
// minimized again: the bytes are the admitted seeds' copies and each
// minimization's one clone of its repro. It reads ~913 bytes/exec now
// that removal trials edit that clone in place and run crash-only,
// against ~1 180 while each legal trial copied the calls whose
// bindings shifted and ~1 720 while an admitted copy and a trial
// deep-copied every call; the budget leaves about 25 % headroom.
func TestShardedCampaignByteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const execs = 8000
	f := New(plumbedTarget(t, "dm", "cec"), testKernel)
	cfg := DefaultConfig(execs, 1)
	cfg.ShardExecs = 500
	run := func() {
		if _, err := f.RunParallel(context.Background(), cfg, 2); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm process-level lazy state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const reps = 3
	for range reps {
		run()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / (reps * execs)
	t.Logf("sharded campaign: %.0f bytes/exec", per)
	if per > 1140 {
		t.Fatalf("sharded campaign allocates %.0f bytes/exec, budget is 1140", per)
	}
}
