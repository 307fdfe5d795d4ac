package vkernel

// Edge-case tests for the execution layer: executor state reuse,
// sockopt short-optlen rejection, accept fd chaining, sockaddr family
// validation, and stateful PriorCmds bug preconditions.

import (
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/prog"
)

// cecChainProg builds the stateful CEC chain open → CEC_TRANSMIT →
// CEC_S_MODE, which fires "WARNING in cec_data_cancel" (PriorCmds:
// CEC_TRANSMIT), by generating with only those calls enabled.
func cecChainProg(t testing.TB) (*prog.Target, *prog.Prog) {
	t.Helper()
	tgt := targetFor(t, "cec")
	g := prog.NewGen(tgt, 17)
	g.Enabled = map[string]bool{
		"openat$cec": true, "ioctl$CEC_TRANSMIT": true, "ioctl$CEC_S_MODE": true,
	}
	for i := 0; i < 4000; i++ {
		p := g.Generate(6)
		if res := testKernel.NewVM().Run(p); res.Crash != nil && res.Crash.Title == "WARNING in cec_data_cancel" {
			return tgt, p
		}
	}
	t.Fatal("could not build a crashing CEC chain")
	return nil, nil
}

func TestPriorCmdsOrderedChain(t *testing.T) {
	_, p := cecChainProg(t)
	// The chain crashes: TRANSMIT recorded in history before S_MODE.
	res := testKernel.NewVM().Run(p)
	if res.Crash == nil || res.Crash.Title != "WARNING in cec_data_cancel" {
		t.Fatalf("chain did not crash: %+v", res.Crash)
	}
	// Dropping every TRANSMIT removes the precondition: no crash.
	stripped := p.Clone()
	var calls []*prog.Call
	for _, c := range stripped.Calls {
		if c.Sc.Name != "ioctl$CEC_TRANSMIT" {
			calls = append(calls, c)
		}
	}
	stripped.Calls = calls
	if res := testKernel.NewVM().Run(stripped); res.Crash != nil {
		t.Fatalf("bug fired without its PriorCmds: %v", res.Crash.Title)
	}
}

func TestVMReuseIsolatesState(t *testing.T) {
	_, p := cecChainProg(t)
	vm := testKernel.NewVM()
	if res := vm.Run(p); res.Crash == nil {
		t.Fatal("chain did not crash on a fresh VM")
	}
	// Re-running only the tail (open + S_MODE) on the SAME VM must
	// not crash: the previous run's command history must not leak.
	tail := p.Clone()
	var calls []*prog.Call
	for _, c := range tail.Calls {
		if c.Sc.Name != "ioctl$CEC_TRANSMIT" {
			calls = append(calls, c)
		}
	}
	tail.Calls = calls
	res := vm.Run(tail)
	if res.Crash != nil {
		t.Fatalf("history leaked across VM reuse: %v", res.Crash.Title)
	}
	// Coverage must also reset: the tail alone covers strictly less
	// than the crashing chain.
	if full := vm.Run(p); len(res.Cov) >= len(full.Cov) {
		t.Fatalf("coverage leaked across reuse: tail %d >= chain %d", len(res.Cov), len(full.Cov))
	}
}

func TestSockoptShortOptlenErrno(t *testing.T) {
	tgt := rdsTarget(t)
	rds, structOpt := rdsStructOpt(t)
	size := rds.LayoutOf(structOpt.Arg).Size
	sc := tgt.ByName["setsockopt$"+structOpt.Name]
	g := prog.NewGen(tgt, 29)
	g.Enabled = map[string]bool{"socket$rds": true, "setsockopt$" + structOpt.Name: true}
	var p *prog.Prog
	var call *prog.Call
	for p == nil {
		trial := g.Generate(2)
		for _, c := range trial.Calls {
			if c.Sc == sc && c.Args[0].ResultOf >= 0 {
				p, call = trial, c
			}
		}
	}
	call.Args[4].Scalar = uint64(size - 1)
	short := testKernel.NewVM().Run(p)
	call.Args[4].Scalar = uint64(size)
	full := testKernel.NewVM().Run(p)
	if short.Errno <= full.Errno {
		t.Fatalf("short optlen must error: short=%d full=%d", short.Errno, full.Errno)
	}
	// The worker rejects before the body: entry covered, body not.
	if len(short.Cov) >= len(full.Cov) {
		t.Fatalf("short optlen covered the body: %d vs %d blocks", len(short.Cov), len(full.Cov))
	}
}

// TestAcceptFdChaining gives a socket handler an accept call and
// checks the accepted fd drives later calls on the same handler.
func TestAcceptFdChaining(t *testing.T) {
	c := corpus.Build(corpus.TestConfig())
	h := c.Handler("rds")
	h.Socket.Calls = append(h.Socket.Calls, corpus.SockCall{Kind: corpus.SockAccept, Blocks: 3})
	k := New(c)

	var plainOpt *corpus.Cmd
	for i := range h.Cmds {
		if h.Cmds[i].Arg == "" {
			plainOpt = &h.Cmds[i]
			break
		}
	}
	optVal := uint64(0)
	optLen := uint64(8)
	if plainOpt == nil {
		plainOpt = &h.Cmds[0]
		optLen = uint64(h.LayoutOf(plainOpt.Arg).Size)
	}
	optVal = h.CmdValue(plainOpt, c.Index.Sizeof)

	intT := &prog.Type{Kind: prog.KindInt, Bytes: 8}
	resT := &prog.Type{Kind: prog.KindResource}
	scalarArg := func(v uint64) *prog.Value { return &prog.Value{Type: intT, Scalar: v} }
	resArg := func(of int) *prog.Value { return &prog.Value{Type: resT, ResultOf: of} }
	p := &prog.Prog{Calls: []*prog.Call{
		{Sc: &prog.Syscall{Name: "socket$rds", CallName: "socket"},
			Args: []*prog.Value{scalarArg(uint64(h.Socket.DomainVal)), scalarArg(2), scalarArg(0)}},
		{Sc: &prog.Syscall{Name: "accept$rds", CallName: "accept"},
			Args: []*prog.Value{resArg(0)}},
		{Sc: &prog.Syscall{Name: "setsockopt$" + plainOpt.Name, CallName: "setsockopt"},
			Args: []*prog.Value{resArg(1), scalarArg(uint64(h.Socket.LevelVal)),
				scalarArg(optVal), scalarArg(0), scalarArg(optLen)}},
	}}
	res := k.NewVM().Run(p)
	if res.Errno != 0 {
		t.Fatalf("accept-chained sockopt errored: %+v", res)
	}
	lo, hi := k.BlockRange("rds")
	inRange := 0
	for _, b := range res.Cov {
		if b >= lo && b < hi {
			inRange++
		}
	}
	// open blocks + accept entry/body + option entry (+ body/gates).
	if inRange <= h.OpenBlocks+1+3 {
		t.Fatalf("accepted fd did not dispatch: only %d handler blocks", inRange)
	}
	// Without the synthetic accept call the same program must error.
	if res := testKernel.NewVM().Run(p); res.Errno == 0 {
		t.Fatal("accept on an accept-less socket should error")
	}
}

func TestAddrValidFamilyMismatch(t *testing.T) {
	tgt := targetFor(t, "l2tp_ip6")
	dom := hex(uint64(testCorpus.Handler("l2tp_ip6").Socket.DomainVal))
	run := func(fam string) *Result {
		text := "r0 = socket$l2tp_ip6(" + dom + ", 0x2, 0x0)\n" +
			"sendto$l2tp_ip6(r0, &[0x0], 0x1, 0x0, &{" + fam + ", 0x0, [0x0, 0x0, 0x0, 0x0]}, 0x14)\n"
		return testKernel.NewVM().Run(buildProg(t, tgt, text))
	}
	matched := run(dom)
	if matched.Errno != 0 {
		t.Fatalf("matching family rejected: %+v", matched)
	}
	// Family 0 is the wildcard the validator accepts.
	if wild := run("0x0"); wild.Errno != 0 || len(wild.Cov) != len(matched.Cov) {
		t.Fatalf("zero-family wildcard rejected: %+v", wild)
	}
	mism := run("0x7777")
	if mism.Errno == 0 {
		t.Fatal("mismatched family accepted")
	}
	if len(mism.Cov) >= len(matched.Cov) {
		t.Fatalf("mismatched family covered the body: %d vs %d", len(mism.Cov), len(matched.Cov))
	}
}
