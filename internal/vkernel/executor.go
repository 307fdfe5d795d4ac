package vkernel

import (
	"kernelgpt/internal/prog"
)

// Executor runs one program at a time and reports its outcome. It is
// the seam between the fuzzing loop and the execution substrate: the
// virtual kernel implements it with *VM, and alternative backends —
// other kernel images, a real-executor bridge, a record/replay shim —
// can slot in behind the same interface. (*VM).Run is
// prog.CompileExecInto + RunCompiled on a VM-owned scratch ExecProg.
//
// Run must be deterministic for a given program, and the returned
// Result must not alias per-run executor state (callers retain it
// across subsequent runs; its Crash is the kernel's shared, read-only
// record). Run must not retain p, or anything reachable from it, past
// its return: campaign candidates are a prog.Gen's scratch,
// overwritten by the next generation or mutation (an executor that
// needs the program later keeps p.Detach(), whose frozen calls stay
// shared and read-only; p.Clone() is a copy it may edit).
type Executor interface {
	Run(p *prog.Prog) *Result
}

// VM is a reusable executor: one virtual machine instance whose
// per-program state (coverage bitmap, fd table, command history) is
// allocated once and recycled across runs. This is the fuzzing hot
// path — a campaign executes every program on one VM instead of
// allocating fresh maps per execution.
//
// Every program runs compiled: RunCompiled executes a prog.ExecProg
// with zero allocations, crash or not — coverage stays in the VM's
// internal CoverSet (Cover/AppendCover) and the outcome is returned
// directly — and Run and RunCrash are the forms that lower a
// *prog.Prog into a VM-owned scratch ExecProg first.
//
// A VM is not safe for concurrent use; run one VM per goroutine (the
// Kernel they share is immutable). A compiled program's resolution
// cache is owned by whichever VM ran it last, so an ExecProg must not
// be shared across concurrently running VMs either.
type VM struct {
	st exec
	// ep is Run's scratch lowering, recompiled in place per program.
	ep prog.ExecProg
}

// NewVM returns a fresh executor VM backed by the kernel image.
func (k *Kernel) NewVM() *VM {
	return &VM{st: exec{
		k:    k,
		cov:  NewCoverSet(k.NumBlocks()),
		hist: make([]uint64, k.histWords),
	}}
}

// Run lowers p into the VM's scratch ExecProg and executes it with
// RunCompiled. Execution is deterministic; the Result is freshly
// allocated and safe to retain.
func (v *VM) Run(p *prog.Prog) *Result {
	prog.CompileExecInto(p, &v.ep)
	crash, errs := v.RunCompiled(&v.ep)
	return &Result{Cov: v.st.cov.Blocks(), Crash: crash, Errno: errs}
}

// RunCrash is Run for a caller that wants only the crash (triage): it
// builds no Result and reads no coverage, so a warm VM runs it with
// zero allocations.
func (v *VM) RunCrash(p *prog.Prog) *Crash {
	prog.CompileExecInto(p, &v.ep)
	crash, _ := v.RunCompiled(&v.ep)
	return crash
}

// rprog is a compiled program resolved against one kernel image: the
// per-call opcode, generic entry block, and (for open/socket) target
// handler, all looked up once instead of per run. It lives in the
// ExecProg's cache slot, keyed by kernel identity and compilation
// generation.
type rprog struct {
	k     *Kernel
	gen   uint64
	calls []rcall
}

// rcall is one pre-resolved instruction.
type rcall struct {
	op         exop
	hasGeneric bool
	generic    BlockID
	// kh is the pre-resolved handler for opOpen (byPath) and opSocket
	// (byDomain); nil = no such device/domain. Unused for other ops.
	kh *khandler
}

// resolve returns the program's dispatch resolution against kernel k,
// reusing the cached one when it is current. The rcall slice is
// recycled across recompilations, so a fuzzing loop that compiles
// into one ExecProg reaches a zero-allocation steady state.
func (k *Kernel) resolve(ep *prog.ExecProg) *rprog {
	rp, _ := ep.Cache().(*rprog)
	if rp != nil && rp.k == k && rp.gen == ep.Gen() {
		return rp
	}
	if rp == nil || rp.k != k {
		rp = &rprog{k: k}
	}
	rp.gen = ep.Gen()
	if cap(rp.calls) < len(ep.Calls) {
		rp.calls = make([]rcall, len(ep.Calls))
	} else {
		rp.calls = rp.calls[:len(ep.Calls)]
	}
	for i := range ep.Calls {
		ec := &ep.Calls[i]
		rc := rcall{op: opOf[ec.Sc.CallName]}
		rc.generic, rc.hasGeneric = k.genericBlocks[ec.Sc.CallName]
		switch rc.op {
		case opOpen:
			rc.kh = k.byPath[string(ec.Path)]
		case opSocket:
			rc.kh = k.byDomain[int(scalarAt(ec, 0))]
		}
		rp.calls[i] = rc
	}
	ep.SetCache(rp)
	return rp
}

// RunCompiled executes a compiled program. Coverage is left in the
// VM's internal CoverSet — read it with Cover or AppendCover before
// the next run — and the crash/errno outcome is returned directly, so
// a run performs zero allocations once the program's resolution
// cache is warm.
func (v *VM) RunCompiled(ep *prog.ExecProg) (*Crash, int) {
	e := &v.st
	rp := e.k.resolve(ep)
	e.reset(len(ep.Calls))
	for i := range ep.Calls {
		rc := &rp.calls[i]
		if rc.hasGeneric {
			e.cover(rc.generic)
		}
		e.dispatch(i, rc.op, rc.kh, &ep.Calls[i])
		if e.crash != nil {
			break
		}
	}
	return e.crash, e.errs
}

// AppendCover appends the last run's covered blocks (sorted,
// deduplicated) to dst and returns the extended slice. With a
// recycled dst this is allocation-free.
func (v *VM) AppendCover(dst []BlockID) []BlockID {
	return v.st.cov.AppendBlocks(dst)
}

var _ Executor = (*VM)(nil)
