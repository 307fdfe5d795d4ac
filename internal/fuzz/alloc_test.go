package fuzz

import "testing"

// TestCampaignStepAllocs is the loop-level alloc-regression guard:
// the amortized allocation count of one campaign step (seed pick,
// mutation, compile, compiled exec, observe, pool bookkeeping) must
// stay within budget so alloc creep in the hot loop fails go test,
// not just the bench gate. Candidates are built in the Gen's scratch
// arena and the exec is allocation-free, so what is left is the copy
// of each admitted seed, crash bookkeeping and the scheduler's weight
// vector (~1.3/exec as of the scratch-arena change; the budget was
// 250 before it).
func TestCampaignStepAllocs(t *testing.T) {
	const execs = 4000
	f := New(plumbedTarget(t, "dm", "cec"), testKernel)
	cfg := DefaultConfig(execs, 1)
	cfg.NoTriage = true
	f.Run(cfg) // warm process-level lazy state
	allocs := testing.AllocsPerRun(2, func() { f.Run(cfg) })
	per := allocs / execs
	t.Logf("campaign step: %.1f allocs/exec (%.0f total)", per, allocs)
	if per > 10 {
		t.Fatalf("campaign step allocates %.1f/exec, budget is 10", per)
	}
}
