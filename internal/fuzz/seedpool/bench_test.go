package seedpool_test

import (
	"testing"

	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
)

// BenchmarkPoolAdmit is the seed pool's admission cost, the per-layer
// row under a campaign's early phase, where nearly every candidate is
// kept: one op mutates a frozen deep seed 1024 times and offers each
// candidate at a rising priority, so every offer is admitted — copied
// (its owned calls; the frozen calls it shares with its seed and donor
// are kept by pointer) and frozen. Mutation is on the clock too;
// BenchmarkMutateOp (internal/prog) prices it alone.
func BenchmarkPoolAdmit(b *testing.B) {
	tgt, _ := deepTarget(b)
	g := prog.NewGen(tgt, 1)
	seeds := make([]*prog.Prog, 32)
	for i := range seeds {
		seeds[i] = g.Generate(8).Detach()
		seeds[i].Freeze()
	}
	ops := prog.DefaultOperators()
	ctx := &prog.MutateCtx{MaxCalls: 8, Donor: func() *prog.Prog { return seeds[g.R.Intn(len(seeds))] }}
	pool := seedpool.New(256)
	prio := 0
	admitBatch := func() {
		for i := range 1024 {
			m, _ := g.MutateOp(seeds[i%len(seeds)], ops[i%len(ops)], ctx)
			prio++
			if !pool.Add(m, prio, "") {
				b.Fatal("an offer outranking every seed was rejected")
			}
		}
	}
	admitBatch() // the pool reaches its capacity
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		admitBatch()
	}
}
