package vkernel

import (
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
)

func benchProgs(b *testing.B) []*prog.Prog {
	b.Helper()
	f := &syzlang.File{}
	for _, n := range []string{"dm", "cec", "rds"} {
		f.Merge(corpus.OracleSpec(testCorpus.Handler(n)))
	}
	tgt, err := prog.Compile(f, testCorpus.Env())
	if err != nil {
		b.Fatal(err)
	}
	g := prog.NewGen(tgt, 1)
	progs := make([]*prog.Prog, 64)
	for i := range progs {
		progs[i] = g.Generate(8).Detach()
	}
	return progs
}

// BenchmarkVMRun measures the convenience path triage and custom
// executors use: lower into the VM's scratch ExecProg, RunCompiled,
// fresh Result.
func BenchmarkVMRun(b *testing.B) {
	progs := benchProgs(b)
	vm := testKernel.NewVM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Run(progs[i%len(progs)])
	}
}

// benchExecProgs compiles the benchmark corpus and warms each
// program's kernel resolution cache.
func benchExecProgs(b *testing.B, vm *VM) []*prog.ExecProg {
	b.Helper()
	progs := benchProgs(b)
	eps := make([]*prog.ExecProg, len(progs))
	for i, p := range progs {
		eps[i] = compileExec(p)
		vm.RunCompiled(eps[i])
	}
	return eps
}

// BenchmarkVMRunCompiled measures the campaign loop's exec cost:
// pre-lowered programs dispatched with coverage read back into a
// recycled buffer. BenchmarkVMRun adds the lowering and the Result.
func BenchmarkVMRunCompiled(b *testing.B) {
	vm := testKernel.NewVM()
	eps := benchExecProgs(b, vm)
	// Pre-grow the coverage buffer over every program so the timed
	// loop is pure dispatch — the steady state a campaign loop runs in.
	var cov []BlockID
	for _, ep := range eps {
		vm.RunCompiled(ep)
		cov = vm.AppendCover(cov[:0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.RunCompiled(eps[i%len(eps)])
		cov = vm.AppendCover(cov[:0])
	}
	_ = cov
}

// BenchmarkCoverDeltaEncode measures the hub sync path's cover-delta
// compression: a campaign-shaped coverage set (contiguous handler
// block runs plus scattered singles) diffed against the previous
// sync's snapshot and encoded into a recycled buffer.
func BenchmarkCoverDeltaEncode(b *testing.B) {
	base := NewCoverSet(1 << 14)
	cur := NewCoverSet(1 << 14)
	// Base: what the last sync already shipped — dense handler ranges.
	for blk := BlockID(0); blk < 6000; blk++ {
		base.Add(blk)
		cur.Add(blk)
	}
	// New since then: a fresh contiguous range plus scattered blocks.
	for blk := BlockID(6000); blk < 6400; blk++ {
		cur.Add(blk)
	}
	for blk := BlockID(7000); blk < 12000; blk += 17 {
		cur.Add(blk)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = cur.AppendDelta(buf[:0], base)
	}
	_ = buf
}
