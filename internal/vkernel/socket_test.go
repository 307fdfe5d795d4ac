package vkernel

import (
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
)

// buildProg deserializes a repro against a compiled oracle target.
func buildProg(t *testing.T, tgt *prog.Target, text string) *prog.Prog {
	t.Helper()
	p, err := prog.Deserialize(tgt, text)
	if err != nil {
		t.Fatalf("bad test program: %v", err)
	}
	return p
}

func rdsTarget(t *testing.T) *prog.Target {
	t.Helper()
	return targetFor(t, "rds")
}

// rdsStructOpt returns the rds handler and its first option that takes
// a struct payload. The sockopt length tests need one; the test corpus
// not having it is a corpus regression, so it fails rather than skips.
func rdsStructOpt(t *testing.T) (*corpus.Handler, *corpus.Cmd) {
	t.Helper()
	rds := testCorpus.Handler("rds")
	for i := range rds.Cmds {
		if rds.Cmds[i].Arg != "" {
			return rds, &rds.Cmds[i]
		}
	}
	t.Fatal("rds has no struct-payload option")
	return nil, nil
}

func TestSockoptLevelMismatchRejected(t *testing.T) {
	tgt := rdsTarget(t)
	rds := testCorpus.Handler("rds")
	opt := rds.Cmds[0]
	optVal := rds.CmdValue(&rds.Cmds[0], nil)
	dom := hex(uint64(rds.Socket.DomainVal))
	text := "r0 = socket$rds(" + dom + ", 0x2, 0x0)\n" +
		"setsockopt$" + opt.Name + "(r0, 0x1, " + hex(optVal) + ", &0x0, 0x4)\n"
	p := buildProg(t, tgt, text)
	res := testKernel.NewVM().Run(p)
	// Wrong level: the option body must not be covered.
	lo, hi := testKernel.BlockRange("rds")
	covered := 0
	for _, b := range res.Cov {
		if b >= lo && b < hi {
			covered++
		}
	}
	if covered > rds.OpenBlocks {
		t.Fatalf("wrong level still dispatched: %d handler blocks", covered)
	}
	if res.Errno == 0 {
		t.Fatal("level mismatch should error")
	}
}

func hex(v uint64) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0x0"
	}
	buf := []byte{}
	for v > 0 {
		buf = append([]byte{digits[v&0xf]}, buf...)
		v >>= 4
	}
	return "0x" + string(buf)
}

func TestSockoptShortOptlenRejected(t *testing.T) {
	tgt := rdsTarget(t)
	rds, structOpt := rdsStructOpt(t)
	level := hex(uint64(rds.Socket.LevelVal))
	optVal := hex(rds.CmdValue(structOpt, nil))
	sm := rds.LayoutOf(structOpt.Arg)
	// Build the option call with optlen = 1 (below the struct size):
	// entry block covered, body not.
	sc := tgt.ByName["setsockopt$"+structOpt.Name]
	if sc == nil {
		t.Fatalf("no compiled setsockopt$%s", structOpt.Name)
	}
	g := prog.NewGen(tgt, 7)
	g.Enabled = map[string]bool{"socket$rds": true, "setsockopt$" + structOpt.Name: true}
	var short, full int
	for i := 0; i < 400; i++ {
		p := g.Generate(3)
		for _, c := range p.Calls {
			if c.Sc != sc {
				continue
			}
			// Force optlen below/at the struct size alternately.
			if i%2 == 0 {
				c.Args[4].Scalar = 1
			} else {
				c.Args[4].Scalar = uint64(sm.Size)
			}
		}
		res := testKernel.NewVM().Run(p)
		n := len(res.Cov)
		if i%2 == 0 && n > short {
			short = n
		}
		if i%2 == 1 && n > full {
			full = n
		}
	}
	if short >= full {
		t.Fatalf("short optlen (%d blocks) should cover less than full (%d)", short, full)
	}
	_ = level
	_ = optVal
}

func TestBindFamilyValidation(t *testing.T) {
	tgt := rdsTarget(t)
	dom := hex(uint64(testCorpus.Handler("rds").Socket.DomainVal))
	good := "r0 = socket$rds(" + dom + ", 0x2, 0x0)\n" +
		"bind$rds(r0, &{" + dom + ", 0x0, [0x0, 0x0, 0x0, 0x0]}, 0x14)\n"
	bad := "r0 = socket$rds(" + dom + ", 0x2, 0x0)\n" +
		"bind$rds(r0, &{0x7777, 0x0, [0x0, 0x0, 0x0, 0x0]}, 0x14)\n"
	gp := testKernel.NewVM().Run(buildProg(t, tgt, good))
	bp := testKernel.NewVM().Run(buildProg(t, tgt, bad))
	if len(gp.Cov) <= len(bp.Cov) {
		t.Fatalf("correct family (%d blocks) should out-cover wrong family (%d)",
			len(gp.Cov), len(bp.Cov))
	}
	if bp.Errno == 0 {
		t.Fatal("wrong family should error")
	}
}

func TestUnknownDomainErrors(t *testing.T) {
	tgt := rdsTarget(t)
	// Craft socket() with a bogus domain by mutating the const.
	g := prog.NewGen(tgt, 9)
	g.Enabled = map[string]bool{"socket$rds": true}
	p := g.Generate(1)
	p.Calls[0].Args[0].Scalar = 0x9999
	res := testKernel.NewVM().Run(p)
	if res.Errno == 0 {
		t.Fatal("unknown domain should error")
	}
}

func TestSocketStateHistoryPerHandler(t *testing.T) {
	// The rds sendto bug fires regardless of prior cmds (no
	// PriorCmds), but the l2tp bug also has none; verify a stateful
	// bug in a socket would honor history by checking the cec pattern
	// applies to sockets too (shared evalGatesAndBug path).
	tgt := targetFor(t, "l2tp_ip6")
	dom := hex(uint64(testCorpus.Handler("l2tp_ip6").Socket.DomainVal))
	text := "r0 = socket$l2tp_ip6(" + dom + ", 0x2, 0x0)\n" +
		"sendto$l2tp_ip6(r0, &[0x0], 0x1, 0x0, &{" + dom + ", 0x0, [0x0, 0x0, 0x0, 0x0]}, 0x14)\n"
	res := testKernel.NewVM().Run(buildProg(t, tgt, text))
	if res.Crash == nil || res.Crash.Title != "memory leak in __ip6_append_data" {
		t.Fatalf("l2tp sendto bug did not fire: %+v", res.Crash)
	}
}

func TestValidationGateBlocksShortAddr(t *testing.T) {
	tgt := targetFor(t, "l2tp_ip6")
	dom := hex(uint64(testCorpus.Handler("l2tp_ip6").Socket.DomainVal))
	// addrlen below sizeof(sockaddr): body must not run, no crash.
	text := "r0 = socket$l2tp_ip6(" + dom + ", 0x2, 0x0)\n" +
		"sendto$l2tp_ip6(r0, &[0x0], 0x1, 0x0, &{" + dom + ", 0x0, [0x0, 0x0, 0x0, 0x0]}, 0x2)\n"
	res := testKernel.NewVM().Run(buildProg(t, tgt, text))
	if res.Crash != nil {
		t.Fatal("short addrlen must not reach the bug")
	}
	if res.Errno == 0 {
		t.Fatal("short addrlen should error")
	}
}

func TestOracleSpecAddrConstFamily(t *testing.T) {
	// The oracle pins sockaddr.family to the domain const, which is
	// what makes generated sendto calls pass addrValid routinely.
	spec := corpus.OracleSpec(testCorpus.Handler("rds"))
	text := syzlang.Format(spec)
	if want := "const[AF_RDS, int16]"; !contains(text, want) {
		t.Fatalf("oracle sockaddr missing %q:\n%s", want, text)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
