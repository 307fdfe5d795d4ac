package fuzz

import "testing"

// TestCampaignStepAllocs is the loop-level alloc-regression guard:
// the amortized allocation count of one campaign step (seed pick,
// mutation, compile, compiled exec, observe, pool bookkeeping) must
// stay within budget so alloc creep in the hot loop fails go test,
// not just the bench gate. Candidates share their seed's calls and
// path-copy what they change into the Gen's scratch arena, lowering
// copies cached payloads into a recycled ExecProg, the exec and the
// scheduler's weight vector are allocation-free; what is left is paid
// per admitted seed (its deep copy, one slab each, and its payload
// cache) and per crash (~0.6/exec here; 1.3 while every step also
// allocated the weight vector, 250 before the scratch arena).
func TestCampaignStepAllocs(t *testing.T) {
	const execs = 4000
	f := New(plumbedTarget(t, "dm", "cec"), testKernel)
	cfg := DefaultConfig(execs, 1)
	cfg.NoTriage = true
	f.Run(cfg) // warm process-level lazy state
	allocs := testing.AllocsPerRun(2, func() { f.Run(cfg) })
	per := allocs / execs
	t.Logf("campaign step: %.1f allocs/exec (%.0f total)", per, allocs)
	if per > 2 {
		t.Fatalf("campaign step allocates %.1f/exec, budget is 2", per)
	}
}
