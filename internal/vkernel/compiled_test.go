package vkernel

// Tests for the compiled execution path: compiled-vs-interpreted
// equivalence over the full bundled-driver + plumbing corpus, state
// isolation across RunBatch elements, and the zero-allocation
// guarantee of the non-crash path.

import (
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
)

// fullPlumbedTarget compiles the oracle specs of every loaded handler
// (drivers and sockets) plus the fd-plumbing/mmap surface — the
// widest program space the kernel executes.
func fullPlumbedTarget(t testing.TB) *prog.Target {
	t.Helper()
	var names []string
	var files []*syzlang.File
	for _, h := range testCorpus.Handlers {
		if !h.Loaded {
			continue
		}
		names = append(names, h.Name)
		files = append(files, corpus.OracleSpec(h))
	}
	pf, err := testCorpus.PlumbingSpecFor(names...)
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, pf)
	tgt, err := prog.Compile(syzlang.MergeDedup(files...), testCorpus.Env())
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func sameCov(a, b []BlockID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameCrash(a, b *Crash) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Title == b.Title
}

// TestCompiledMatchesInterpreted is the equivalence acceptance check:
// for a wide generated corpus over every bundled handler plus the
// plumbing surface, RunCompiled must produce exactly the coverage,
// crash verdict, and errno count of the interpreted Run.
func TestCompiledMatchesInterpreted(t *testing.T) {
	tgt := fullPlumbedTarget(t)
	g := prog.NewGen(tgt, 7)
	ivm := testKernel.NewVM()
	cvm := testKernel.NewVM()
	var ep prog.ExecProg
	var cov []BlockID
	crashes := 0
	for i := 0; i < 2000; i++ {
		p := g.Generate(2 + i%12)
		want := ivm.Run(p)
		prog.CompileExecInto(p, &ep)
		crash, errno := cvm.RunCompiled(&ep)
		cov = cvm.AppendCover(cov[:0])
		if !sameCov(want.Cov, cov) {
			t.Fatalf("coverage diverged on:\n%s\ninterpreted %d blocks, compiled %d", p.String(), len(want.Cov), len(cov))
		}
		if !sameCrash(want.Crash, crash) {
			t.Fatalf("crash verdict diverged on:\n%s\ninterpreted %+v, compiled %+v", p.String(), want.Crash, crash)
		}
		if want.Errno != errno {
			t.Fatalf("errno diverged on:\n%s\ninterpreted %d, compiled %d", p.String(), want.Errno, errno)
		}
		if want.Crash != nil {
			crashes++
		}
	}
	if crashes == 0 {
		t.Fatal("equivalence corpus never crashed; the crash path went untested")
	}
}

// TestCompiledStatefulCrash pins the stateful-bug path: the CEC
// PriorCmds chain must crash compiled exactly as interpreted, and the
// stripped chain must not.
func TestCompiledStatefulCrash(t *testing.T) {
	_, p := cecChainProg(t)
	vm := testKernel.NewVM()
	ep := prog.CompileExec(p)
	crash, _ := vm.RunCompiled(ep)
	if crash == nil || crash.Title != "WARNING in cec_data_cancel" {
		t.Fatalf("compiled chain did not crash: %+v", crash)
	}
	stripped := p.Clone()
	var calls []*prog.Call
	for _, c := range stripped.Calls {
		if c.Sc.Name != "ioctl$CEC_TRANSMIT" {
			calls = append(calls, c)
		}
	}
	stripped.Calls = calls
	if crash, _ := vm.RunCompiled(prog.CompileExec(stripped)); crash != nil {
		t.Fatalf("compiled bug fired without its PriorCmds: %v", crash.Title)
	}
}

// TestRunBatchIsolation runs a batch whose elements open fds, map
// regions, register epoll watches, and crash, and checks every
// element's outcome equals the same program run alone on a fresh VM —
// no fd-table, vma, watch, history, or coverage leakage between batch
// elements.
func TestRunBatchIsolation(t *testing.T) {
	tgt := fullPlumbedTarget(t)
	g := prog.NewGen(tgt, 11)
	progs := make([]*prog.Prog, 0, 66)
	for i := 0; i < 64; i++ {
		progs = append(progs, g.Generate(2+i%12).Detach())
	}
	// Plant a crashing chain followed by its stripped tail: if history
	// or the crash flag leaked, the tail would crash too.
	_, chain := cecChainProg(t)
	tail := chain.Clone()
	var calls []*prog.Call
	for _, c := range tail.Calls {
		if c.Sc.Name != "ioctl$CEC_TRANSMIT" {
			calls = append(calls, c)
		}
	}
	tail.Calls = calls
	progs = append(progs, chain, tail)

	eps := make([]*prog.ExecProg, len(progs))
	for i, p := range progs {
		eps[i] = prog.CompileExec(p)
	}
	out := make([]Result, len(eps))
	vm := testKernel.NewVM()
	vm.RunBatch(eps, out)
	for i, p := range progs {
		want := testKernel.NewVM().Run(p)
		if !sameCov(want.Cov, out[i].Cov) || !sameCrash(want.Crash, out[i].Crash) || want.Errno != out[i].Errno {
			t.Fatalf("batch element %d diverged from a fresh VM on:\n%s\nfresh {cov %d, crash %+v, errno %d} vs batch {cov %d, crash %+v, errno %d}",
				i, p.String(), len(want.Cov), want.Crash, want.Errno, len(out[i].Cov), out[i].Crash, out[i].Errno)
		}
	}
	if out[len(out)-2].Crash == nil {
		t.Fatal("planted chain did not crash in the batch")
	}
	if out[len(out)-1].Crash != nil {
		t.Fatal("state leaked across batch elements: stripped tail crashed")
	}
}

// TestRunCompiledZeroAllocs is the alloc-regression guard for the
// executor: once a program's resolution cache and the caller's cover
// buffer are warm, RunCompiled + AppendCover must stay within the
// ≤5 allocs/op budget (and is expected to hit 0) so alloc creep fails
// go test, not just the bench gate.
func TestRunCompiledZeroAllocs(t *testing.T) {
	tgt := fullPlumbedTarget(t)
	g := prog.NewGen(tgt, 13)
	vm := testKernel.NewVM()
	var eps []*prog.ExecProg
	var cov []BlockID
	for len(eps) < 32 {
		p := g.Generate(2 + len(eps)%10)
		ep := prog.CompileExec(p)
		// Keep the non-crash path honest: crashing programs allocate
		// the Crash report by design.
		if crash, _ := vm.RunCompiled(ep); crash == nil {
			eps = append(eps, ep)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, ep := range eps {
			vm.RunCompiled(ep)
			cov = vm.AppendCover(cov[:0])
		}
	})
	per := allocs / float64(len(eps))
	if per > 5 {
		t.Fatalf("RunCompiled allocates %.2f/op, budget is 5", per)
	}
	if per != 0 {
		t.Logf("RunCompiled allocates %.2f/op (budget 5)", per)
	}
}
