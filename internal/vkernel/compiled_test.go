package vkernel

// Tests for the compiled execution path: the stateful-bug chain, state
// isolation across successive RunCompiled calls on one VM, and the
// zero-allocation guarantee of the non-crash path. (The recorded
// behaviour contract over the full bundled-driver + plumbing corpus is
// TestExecContract in contract_test.go.)

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

// compileExec lowers p into a fresh ExecProg.
func compileExec(p *prog.Prog) *prog.ExecProg {
	ep := &prog.ExecProg{}
	prog.CompileExecInto(p, ep)
	return ep
}

// TestCompiledStatefulCrash pins the stateful-bug path: the CEC
// PriorCmds chain must crash when run from a caller-held ExecProg
// exactly as it does through VM.Run (how cecChainProg found it),
// and the stripped chain must not.
func TestCompiledStatefulCrash(t *testing.T) {
	_, p := cecChainProg(t)
	vm := testKernel.NewVM()
	ep := compileExec(p)
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
	if crash, _ := vm.RunCompiled(compileExec(stripped)); crash != nil {
		t.Fatalf("compiled bug fired without its PriorCmds: %v", crash.Title)
	}
}

// TestRunCompiledIsolation runs programs that open fds, map regions,
// register epoll watches, and crash back to back on one VM, and checks
// every outcome equals the same program run alone on a fresh VM — no
// fd-table, vma, watch, history, or coverage leakage between runs.
func TestRunCompiledIsolation(t *testing.T) {
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

	out := make([]Result, len(progs))
	vm := testKernel.NewVM()
	for i, p := range progs {
		out[i].Crash, out[i].Errno = vm.RunCompiled(compileExec(p))
		out[i].Cov = vm.AppendCover(nil)
	}
	for i, p := range progs {
		want := testKernel.NewVM().Run(p)
		if !sameCov(want.Cov, out[i].Cov) || !sameCrash(want.Crash, out[i].Crash) || want.Errno != out[i].Errno {
			t.Fatalf("run %d diverged from a fresh VM on:\n%s\nfresh {cov %d, crash %+v, errno %d} vs reused {cov %d, crash %+v, errno %d}",
				i, p.String(), len(want.Cov), want.Crash, want.Errno, len(out[i].Cov), out[i].Crash, out[i].Errno)
		}
	}
	if out[len(out)-2].Crash == nil {
		t.Fatal("planted chain did not crash on the reused VM")
	}
	if out[len(out)-1].Crash != nil {
		t.Fatal("state leaked across runs: stripped tail crashed")
	}
}

// TestRunCompiledZeroAllocs is the alloc-regression guard for the
// executor: once a program's resolution cache and the caller's cover
// buffer are warm, RunCompiled + AppendCover allocates nothing, on
// crashing programs too (each planted bug's report is built once, with
// the kernel image), so alloc creep fails go test, not just the bench
// gate. Both paths are held to 0.
func TestRunCompiledZeroAllocs(t *testing.T) {
	tgt := fullPlumbedTarget(t)
	g := prog.NewGen(tgt, 13)
	vm := testKernel.NewVM()
	var clean, crashing []*prog.ExecProg
	for len(clean) < 32 {
		ep := compileExec(g.Generate(2 + len(clean)%10))
		if crash, _ := vm.RunCompiled(ep); crash == nil {
			clean = append(clean, ep)
		}
	}
	_, chain := cecChainProg(t)
	crashing = append(crashing, compileExec(chain))
	for i := 0; len(crashing) < 8; i++ {
		ep := compileExec(g.Generate(2 + i%10))
		if crash, _ := vm.RunCompiled(ep); crash != nil {
			crashing = append(crashing, ep)
		}
	}
	var cov []BlockID
	for _, path := range []struct {
		name string
		eps  []*prog.ExecProg
	}{{"non-crash", clean}, {"crash", crashing}} {
		allocs := testing.AllocsPerRun(50, func() {
			for _, ep := range path.eps {
				if crash, _ := vm.RunCompiled(ep); (crash != nil) != (path.name == "crash") {
					t.Fatalf("a %s program changed outcome on a rerun", path.name)
				}
				cov = vm.AppendCover(cov[:0])
			}
		})
		if per := allocs / float64(len(path.eps)); per != 0 {
			t.Errorf("RunCompiled allocates %.2f/op on the %s path (%d programs), budget is 0", per, path.name, len(path.eps))
		}
	}
}
