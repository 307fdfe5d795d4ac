package prog

import "testing"

// The prog-layer benchmarks. The CI gate runs every benchmark at
// -benchtime 1x, so one op is a fixed batch of calls (benchBatch)
// rather than a single microsecond-scale call, and each benchmark
// runs one untimed batch first so the arena and work buffers are at
// their steady-state size. Divide ns/op by benchBatch for per-call
// cost.
const benchBatch = 1024

var benchTargets = []struct {
	name string
	tgt  func(testing.TB) *Target
}{
	{"deep", deepTarget},       // dm+cec: few syscalls, large nested structs
	{"plumbed", plumbedTarget}, // bundled drivers + fd-plumbing surface
}

// benchSeeds is a fixed set of heap-owned programs standing in for a
// seed pool: frozen, like everything a pool holds, so the mutation and
// lowering benchmarks time the shared-call path a campaign runs.
func benchSeeds(tgt *Target) []*Prog {
	g := NewGen(tgt, 1)
	seeds := make([]*Prog, 32)
	for i := range seeds {
		seeds[i] = g.Generate(8).Detach()
		seeds[i].Freeze()
	}
	return seeds
}

var benchSink *Prog

// runBatches times fn over b.N batches after one warm-up batch.
func runBatches(b *testing.B, fn func(i int)) {
	b.Helper()
	for i := 0; i < benchBatch; i++ {
		fn(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < benchBatch; i++ {
			fn(i)
		}
	}
}

// BenchmarkGenerate: benchBatch fresh programs of up to 8 calls.
func BenchmarkGenerate(b *testing.B) {
	for _, bt := range benchTargets {
		b.Run(bt.name, func(b *testing.B) {
			g := NewGen(bt.tgt(b), 2)
			runBatches(b, func(int) { benchSink = g.Generate(8) })
		})
	}
}

// BenchmarkMutateOp: benchBatch single-operator mutations of pooled
// seeds (splice draws its donor from the same pool), one
// sub-benchmark per operator.
func BenchmarkMutateOp(b *testing.B) {
	for _, bt := range benchTargets {
		tgt := bt.tgt(b)
		seeds := benchSeeds(tgt)
		for _, op := range DefaultOperators() {
			b.Run(bt.name+"/"+op.Name(), func(b *testing.B) {
				g := NewGen(tgt, 3)
				ctx := &MutateCtx{MaxCalls: 8, Donor: func() *Prog { return seeds[g.R.Intn(len(seeds))] }}
				runBatches(b, func(i int) { benchSink, _ = g.MutateOp(seeds[i%len(seeds)], op, ctx) })
			})
		}
	}
}

// BenchmarkClone: benchBatch heap clones — what the seed pool pays
// per admitted candidate, and triage per trial.
func BenchmarkClone(b *testing.B) {
	for _, bt := range benchTargets {
		b.Run(bt.name, func(b *testing.B) {
			seeds := benchSeeds(bt.tgt(b))
			runBatches(b, func(i int) { benchSink = seeds[i%len(seeds)].Clone() })
		})
	}
}

// BenchmarkFreeze: benchBatch freezes of unfrozen programs — what the
// seed pool pays per admitted candidate on top of its Clone (the len
// check, the size walk and one encoding of every pointer payload). The
// clones are made off the clock.
func BenchmarkFreeze(b *testing.B) {
	for _, bt := range benchTargets {
		b.Run(bt.name, func(b *testing.B) {
			seeds := benchSeeds(bt.tgt(b))
			fresh := make([]*Prog, benchBatch)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				for i := range fresh {
					fresh[i] = seeds[i%len(seeds)].Clone()
				}
				b.StartTimer()
				for _, p := range fresh {
					p.Freeze()
				}
			}
		})
	}
}

// BenchmarkCompileExecInto: benchBatch lowerings into one recycled
// ExecProg — the per-candidate compile step of the campaign loop.
func BenchmarkCompileExecInto(b *testing.B) {
	for _, bt := range benchTargets {
		b.Run(bt.name, func(b *testing.B) {
			seeds := benchSeeds(bt.tgt(b))
			var ep ExecProg
			runBatches(b, func(i int) { CompileExecInto(seeds[i%len(seeds)], &ep) })
		})
	}
}
