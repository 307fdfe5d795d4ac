package vkernel

import (
	"sort"
	"testing"
	"testing/quick"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
)

var (
	testCorpus = corpus.Build(corpus.TestConfig())
	testKernel = New(testCorpus)
)

// targetFor compiles the oracle spec of one handler (plus ancestors)
// into a prog.Target.
func targetFor(t testing.TB, names ...string) *prog.Target {
	t.Helper()
	f := &syzlang.File{}
	for _, n := range names {
		h := testCorpus.Handler(n)
		if h == nil {
			t.Fatalf("no handler %q", n)
		}
		f.Merge(corpus.OracleSpec(h))
	}
	tgt, err := prog.Compile(f, testCorpus.Env())
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func mkCall(t *testing.T, tgt *prog.Target, g *prog.Gen, p *prog.Prog, name string) int {
	t.Helper()
	sc := tgt.ByName[name]
	if sc == nil {
		t.Fatalf("no syscall %q", name)
	}
	// Generate until the resource bindings resolve (creator chain is
	// deterministic enough at low depth).
	before := len(p.Calls)
	for tries := 0; tries < 50; tries++ {
		trial := &prog.Prog{Calls: append([]*prog.Call(nil), p.Calls...)}
		g2 := g
		_ = g2
		idx := appendCallPublic(g, trial, sc)
		if idx >= 0 {
			*p = *trial
			return idx
		}
		p.Calls = p.Calls[:before]
	}
	t.Fatalf("could not build call %s", name)
	return -1
}

// appendCallPublic drives Gen through its public API: generate a
// one-call program for the syscall by restricting Enabled.
func appendCallPublic(g *prog.Gen, p *prog.Prog, sc *prog.Syscall) int {
	saved := g.Enabled
	defer func() { g.Enabled = saved }()
	// Build using Generate on a temp then append — instead, simplest:
	// use Mutate-free direct generation via Generate with only this
	// syscall + creators enabled is fiddly; we instead call Generate
	// on the full target and scan.
	g.Enabled = nil
	for tries := 0; tries < 200; tries++ {
		q := g.Generate(4).Detach() // its calls are kept in p
		for i, c := range q.Calls {
			if c.Sc.Name == sc.Name {
				base := len(p.Calls)
				// Shift resource references.
				for _, cc := range q.Calls {
					cc.ForEachValue(func(v *prog.Value) {
						if v.Type.Kind == prog.KindResource && v.ResultOf >= 0 {
							v.ResultOf += base
						}
					})
				}
				p.Calls = append(p.Calls, q.Calls...)
				return base + i
			}
		}
	}
	return -1
}

func TestOpenCoversDeviceBlocks(t *testing.T) {
	tgt := targetFor(t, "dm")
	g := prog.NewGen(tgt, 1)
	p := &prog.Prog{}
	mkCall(t, tgt, g, p, "openat$dm")
	res := testKernel.NewVM().Run(p)
	if len(res.Cov) < testCorpus.Handler("dm").OpenBlocks {
		t.Fatalf("open covered %d blocks, want at least %d", len(res.Cov), testCorpus.Handler("dm").OpenBlocks)
	}
}

func TestWrongDeviceNameGetsNothing(t *testing.T) {
	// A spec with the wrong device path (SyzDescribe's dm failure)
	// covers only the generic openat entry block.
	src := `
resource fd_wrong[fd]
openat$wrong(fd const[AT_FDCWD], file ptr[in, string["/dev/device-mapper"]], flags const[O_RDWR], mode const[0]) fd_wrong
ioctl$WRONG(fd fd_wrong, cmd const[2], arg ptr[in, array[int8]])
`
	f, errs := syzlang.Parse(src)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	tgt, err := prog.Compile(f, testCorpus.Env())
	if err != nil {
		t.Fatal(err)
	}
	g := prog.NewGen(tgt, 2)
	covMax := 0
	for i := 0; i < 50; i++ {
		res := testKernel.NewVM().Run(g.Generate(4))
		if len(res.Cov) > covMax {
			covMax = len(res.Cov)
		}
	}
	if covMax > 2 {
		t.Fatalf("wrong device name still covered %d blocks", covMax)
	}
}

func TestIoctlDispatchAndGates(t *testing.T) {
	tgt := targetFor(t, "cec")
	g := prog.NewGen(tgt, 3)
	// Run many generated programs; coverage must exceed open+entry
	// blocks eventually (gates pass with ranged fields).
	best := 0
	for i := 0; i < 400; i++ {
		res := testKernel.NewVM().Run(g.Generate(8))
		if n := len(res.Cov); n > best {
			best = n
		}
	}
	min := testCorpus.Handler("cec").OpenBlocks + 8
	if best <= min {
		t.Fatalf("cec fuzzing best coverage %d never exceeded %d", best, min)
	}
}

func TestWrongCmdValueNoDispatch(t *testing.T) {
	// Raw nr values (what SyzDescribe extracts under QuirkIOCNR) are
	// not valid dm command values.
	dm := testCorpus.Handler("dm")
	src := `
resource fd_dm2[fd]
openat$dm2(fd const[AT_FDCWD], file ptr[in, string["/dev/mapper/control"]], flags const[O_RDWR], mode const[0]) fd_dm2
ioctl$RAW(fd fd_dm2, cmd const[2], arg ptr[in, array[int8]])
`
	f, _ := syzlang.Parse(src)
	tgt, err := prog.Compile(f, testCorpus.Env())
	if err != nil {
		t.Fatal(err)
	}
	g := prog.NewGen(tgt, 4)
	for i := 0; i < 100; i++ {
		res := testKernel.NewVM().Run(g.Generate(4))
		// open blocks + generic entries only; never a cmd entry.
		if len(res.Cov) > dm.OpenBlocks+2 {
			t.Fatalf("raw nr dispatched: %d blocks", len(res.Cov))
		}
	}
}

func TestDMBugTriggers(t *testing.T) {
	tgt := targetFor(t, "dm")
	g := prog.NewGen(tgt, 5)
	g.Enabled = map[string]bool{"openat$dm": true, "ioctl$DM_LIST_VERSIONS": true}
	var hit *Crash
	for i := 0; i < 3000 && hit == nil; i++ {
		res := testKernel.NewVM().Run(g.Generate(4))
		hit = res.Crash
	}
	if hit == nil {
		t.Fatal("kmalloc bug in ctl_ioctl never triggered with the correct spec")
	}
	if hit.Title != "kmalloc bug in ctl_ioctl" {
		t.Fatalf("unexpected crash %q", hit.Title)
	}
}

func TestStatefulBugNeedsPriorCmds(t *testing.T) {
	tgt := targetFor(t, "cec")
	g := prog.NewGen(tgt, 6)
	// Only CEC_RECEIVE enabled (plus open): the UAF must NOT fire
	// without its prior commands.
	g.Enabled = map[string]bool{"openat$cec": true, "ioctl$CEC_RECEIVE": true}
	for i := 0; i < 500; i++ {
		if res := testKernel.NewVM().Run(g.Generate(6)); res.Crash != nil {
			t.Fatalf("stateful bug fired without preconditions: %v", res.Crash.Title)
		}
	}
}

// TestHandlerBlockRanges: every handler owns a non-empty block range,
// no two ranges overlap, and all lie within [0, NumBlocks()) — so the
// coverage inside a handler's range is that handler's coverage, and the
// range's width is the number of blocks it could reach.
func TestHandlerBlockRanges(t *testing.T) {
	type span struct {
		name   string
		lo, hi BlockID
	}
	spans := make([]span, 0, len(testCorpus.Handlers))
	for _, h := range testCorpus.Handlers {
		lo, hi := testKernel.BlockRange(h.Name)
		if lo >= hi || hi > testKernel.NumBlocks() {
			t.Errorf("%s: block range [%d, %d) is empty or outside [0, %d)", h.Name, lo, hi, testKernel.NumBlocks())
		}
		spans = append(spans, span{h.Name, lo, hi})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if prev := spans[i-1]; spans[i].lo < prev.hi {
			t.Errorf("%s [%d, %d) overlaps %s [%d, %d)", spans[i].name, spans[i].lo, spans[i].hi, prev.name, prev.lo, prev.hi)
		}
	}
	if lo, hi := testKernel.BlockRange("no_such_handler"); lo != hi {
		t.Errorf("unknown handler has block range [%d, %d)", lo, hi)
	}
}

func TestKVMResourceChainCoversChildren(t *testing.T) {
	tgt := targetFor(t, "kvm", "kvm_vm", "kvm_vcpu")
	g := prog.NewGen(tgt, 7)
	lo, hi := testKernel.BlockRange("kvm_vm")
	if hi <= lo {
		t.Fatal("kvm_vm has no block range")
	}
	sawChild := false
	for i := 0; i < 500 && !sawChild; i++ {
		res := testKernel.NewVM().Run(g.Generate(10))
		for _, b := range res.Cov {
			if b >= lo && b < hi {
				sawChild = true
			}
		}
	}
	if !sawChild {
		t.Fatal("kvm child handler blocks never covered through the resource chain")
	}
}

func TestSocketFamilyDispatch(t *testing.T) {
	tgt := targetFor(t, "rds")
	g := prog.NewGen(tgt, 8)
	best := 0
	for i := 0; i < 300; i++ {
		res := testKernel.NewVM().Run(g.Generate(8))
		if len(res.Cov) > best {
			best = len(res.Cov)
		}
	}
	if best <= testCorpus.Handler("rds").OpenBlocks+2 {
		t.Fatalf("rds socket fuzzing stuck at %d blocks", best)
	}
}

func TestRDSSendtoBug(t *testing.T) {
	tgt := targetFor(t, "rds")
	g := prog.NewGen(tgt, 9)
	g.Enabled = map[string]bool{"socket$rds": true, "sendto$rds": true}
	var hit *Crash
	for i := 0; i < 2000 && hit == nil; i++ {
		res := testKernel.NewVM().Run(g.Generate(4))
		hit = res.Crash
	}
	if hit == nil {
		t.Fatal("rds sendto bug never triggered")
	}
	if hit.Title != "UBSAN: array-index-out-of-bounds in rds_cmsg_recv" {
		t.Fatalf("unexpected crash %q", hit.Title)
	}
}

func TestDeterministicExecution(t *testing.T) {
	tgt := targetFor(t, "dm")
	g := prog.NewGen(tgt, 10)
	p := g.Generate(6)
	a := testKernel.NewVM().Run(p)
	b := testKernel.NewVM().Run(p)
	if len(a.Cov) != len(b.Cov) {
		t.Fatal("nondeterministic coverage")
	}
	for i := range a.Cov {
		if a.Cov[i] != b.Cov[i] {
			t.Fatal("nondeterministic coverage order")
		}
	}
}

func TestBlockNumberingDisjoint(t *testing.T) {
	// Two kernels over the same corpus number identically.
	k2 := New(testCorpus)
	if k2.TotalBlocks != testKernel.TotalBlocks {
		t.Fatal("nondeterministic block count")
	}
}

func TestQuickRunNeverPanics(t *testing.T) {
	tgt := targetFor(t, "dm", "cec", "rds")
	ops := prog.DefaultOperators()
	f := func(seed int64) bool {
		g := prog.NewGen(tgt, seed)
		p := g.Generate(8)
		for i := 0; i < 3; i++ {
			testKernel.NewVM().Run(p)
			p, _ = g.MutateOp(p, ops[g.R.Intn(len(ops))], &prog.MutateCtx{MaxCalls: 8})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageBounded(t *testing.T) {
	tgt := targetFor(t, "dm", "cec")
	g := prog.NewGen(tgt, 12)
	for i := 0; i < 100; i++ {
		res := testKernel.NewVM().Run(g.Generate(8))
		for _, b := range res.Cov {
			if b >= testKernel.TotalBlocks {
				t.Fatalf("block id %d out of range %d", b, testKernel.TotalBlocks)
			}
		}
	}
}
