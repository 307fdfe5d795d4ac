package corpus

import (
	"strings"
	"testing"
	"testing/quick"

	"kernelgpt/internal/ccode"
	"kernelgpt/internal/syzlang"
)

// fullCorpus is built once; tests share it read-only.
var fullCorpus = Build(Config{Scale: 1})

// scanned counts every handler of the given kind: the allyesconfig
// scan population of Table 1.
func scanned(c *Corpus, kind Kind) int {
	n := 0
	for _, h := range c.Handlers {
		if h.Kind == kind {
			n++
		}
	}
	return n
}

func TestScaleTargets(t *testing.T) {
	c := fullCorpus
	if got := scanned(c, KindDriver); got != targetDriversScanned {
		t.Errorf("scanned drivers = %d, want %d", got, targetDriversScanned)
	}
	if got := len(c.Loaded(KindDriver)); got != targetDriversLoaded {
		t.Errorf("loaded drivers = %d, want %d", got, targetDriversLoaded)
	}
	if got := scanned(c, KindSocket); got != targetSocketsScanned {
		t.Errorf("scanned sockets = %d, want %d", got, targetSocketsScanned)
	}
	if got := len(c.Loaded(KindSocket)); got != targetSocketsLoaded {
		t.Errorf("loaded sockets = %d, want %d", got, targetSocketsLoaded)
	}
	// Table 1: 75 incomplete drivers, 66 incomplete sockets.
	if got := len(c.Incomplete(KindDriver)); got != 75 {
		t.Errorf("incomplete drivers = %d, want 75", got)
	}
	if got := len(c.Incomplete(KindSocket)); got != 66 {
		t.Errorf("incomplete sockets = %d, want 66", got)
	}
}

func TestNoSpecDriverCount(t *testing.T) {
	// 45 of the 75 incomplete drivers have no descriptions at all
	// (60%, per §5.1).
	n := 0
	for _, h := range fullCorpus.Incomplete(KindDriver) {
		if specStateOf(h) == stateNoSpec {
			n++
		}
	}
	if n != 45 {
		t.Fatalf("no-spec drivers = %d, want 45", n)
	}
}

func TestTable4BugInventory(t *testing.T) {
	bugs := fullCorpus.AllBugs()
	if len(bugs) != 24 {
		t.Fatalf("planted bugs = %d, want 24", len(bugs))
	}
	cves := 0
	for _, b := range bugs {
		if b.CVE != "" {
			cves++
		}
	}
	if cves != 11 {
		t.Fatalf("CVE bugs = %d, want 11", cves)
	}
	for _, title := range []string{
		"kmalloc bug in ctl_ioctl",
		"KASAN: slab-use-after-free Read in cec_queue_msg_fh",
		"UBSAN: array-index-out-of-bounds in rds_cmsg_recv",
		"divide error in uvc_queue_setup",
	} {
		if bugs[title] == nil {
			t.Errorf("missing planted bug %q", title)
		}
	}
}

func TestRenderedDMSourceParses(t *testing.T) {
	dm := fullCorpus.Handler("dm")
	if dm == nil {
		t.Fatal("dm handler missing")
	}
	ix := fullCorpus.Index
	// The miscdevice registration must expose both .name and
	// .nodename, with nodename holding the true device path.
	var misc *ccode.Registration
	for _, r := range ix.Registrations("miscdevice") {
		if strings.Contains(r.File, "/dm_") || strings.Contains(r.File, "/dm/") {
			misc = r
		}
	}
	if misc == nil {
		t.Fatal("dm miscdevice registration not indexed")
	}
	node, ok := ix.EvalString(misc.Fields["nodename"])
	if !ok || "/dev/"+node != dm.DevPath {
		t.Fatalf("nodename = %q (%v), want path %s", node, ok, dm.DevPath)
	}
	name, _ := ix.EvalString(misc.Fields["name"])
	if "/dev/"+name == dm.DevPath {
		t.Fatal("misc .name must NOT be the true device path for the dm quirk")
	}
}

func TestRenderedDMCommandsEvaluate(t *testing.T) {
	ix := fullCorpus.Index
	dm := fullCorpus.Handler("dm")
	for i := range dm.Cmds {
		c := &dm.Cmds[i]
		v, ok := ix.ResolveMacroInt(c.Name)
		if !ok {
			t.Fatalf("command macro %s does not evaluate", c.Name)
		}
		want := dm.CmdValue(c, ix.Sizeof)
		if v != want {
			t.Fatalf("%s = %#x, want %#x", c.Name, v, want)
		}
		if ccode.IOCNr(v) != uint64(c.NR) {
			t.Fatalf("%s nr = %d, want %d", c.Name, ccode.IOCNr(v), c.NR)
		}
	}
}

func TestEveryLoadedHandlerRenders(t *testing.T) {
	ix := fullCorpus.Index
	for _, h := range fullCorpus.Handlers {
		src, ok := ix.Files()[h.SourcePath()]
		if !ok || len(src) == 0 {
			t.Fatalf("handler %s has no rendered source", h.Name)
		}
		if h.Kind == KindDriver {
			if regs := findFopsFor(ix, h); regs == nil {
				t.Fatalf("handler %s: file_operations registration not indexed", h.Name)
			}
		} else if regs := findProtoOpsFor(ix, h); regs == nil {
			t.Fatalf("handler %s: proto_ops registration not indexed", h.Name)
		}
	}
}

func findFopsFor(ix *ccode.Index, h *Handler) *ccode.Registration {
	return registrationOf(ix, "file_operations", h.Ident()+"_fops")
}

func findProtoOpsFor(ix *ccode.Index, h *Handler) *ccode.Registration {
	return registrationOf(ix, "proto_ops", h.Ident()+"_proto_ops")
}

// registrationOf finds a structType registration by its variable name,
// the way the generators walk ix.Registrations.
func registrationOf(ix *ccode.Index, structType, varName string) *ccode.Registration {
	for _, r := range ix.Registrations(structType) {
		if r.VarName == varName {
			return r
		}
	}
	return nil
}

func TestOracleSpecsValidate(t *testing.T) {
	env := fullCorpus.Env()
	for _, h := range fullCorpus.Handlers {
		if !h.Loaded {
			continue
		}
		spec := OracleSpec(h)
		if h.Parent != "" {
			// Child resources reference the parent's chain; merge the
			// ancestors to validate.
			spec = mergedFamilySpec(fullCorpus, h)
		}
		errs := syzlang.Validate(spec, env)
		errs = filterChildResErrors(errs)
		if len(errs) > 0 {
			t.Fatalf("oracle spec for %s invalid:\n%s\n---\n%s",
				h.Name, syzlang.FormatErrors(syzlang.ValidationErrorsToErrors(errs)),
				syzlang.Format(spec))
		}
	}
}

// mergedFamilySpec merges a child handler's spec with its ancestors'.
func mergedFamilySpec(c *Corpus, h *Handler) *syzlang.File {
	out := &syzlang.File{}
	for cur := h; cur != nil; cur = c.Handler(cur.Parent) {
		out.Merge(OracleSpec(cur))
		if cur.Parent == "" {
			break
		}
	}
	return out
}

// filterChildResErrors drops unknown-resource errors for fd_kvm_vm
// style cross-handler references when validating one handler alone.
func filterChildResErrors(errs []*syzlang.ValidationError) []*syzlang.ValidationError {
	var out []*syzlang.ValidationError
	for _, e := range errs {
		if e.Kind == syzlang.ErrUnknownResource && strings.HasPrefix(e.Ref, "fd_kvm") {
			continue
		}
		out = append(out, e)
	}
	return out
}

func TestSyzkallerSuiteValidates(t *testing.T) {
	suite := fullCorpus.ExistingSuite()
	if len(suite.Syscalls) == 0 {
		t.Fatal("existing suite is empty")
	}
	errs := syzlang.Validate(suite, fullCorpus.Env())
	if len(errs) > 0 {
		t.Fatalf("existing suite invalid: %v", errs[:minInt(5, len(errs))])
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSyzkallerSpecSubsetOfOracle(t *testing.T) {
	for _, h := range fullCorpus.Loaded(KindDriver) {
		syz := SyzkallerSpec(h)
		if syz == nil {
			continue
		}
		oracle := OracleSpec(h)
		oracleCalls := map[string]bool{}
		for _, s := range oracle.Syscalls {
			oracleCalls[s.Name()] = true
		}
		for _, s := range syz.Syscalls {
			if !oracleCalls[s.Name()] {
				t.Fatalf("%s: human suite call %s not in oracle", h.Name, s.Name())
			}
		}
	}
}

func TestMissingFraction(t *testing.T) {
	dm := fullCorpus.Handler("dm")
	if MissingFraction(dm) != 1.0 {
		t.Fatalf("dm missing fraction = %v, want 1.0", MissingFraction(dm))
	}
	for _, h := range fullCorpus.Handlers {
		f := MissingFraction(h)
		if f < 0 || f > 1 {
			t.Fatalf("%s: missing fraction %v out of range", h.Name, f)
		}
		if h.SyzkallerComplete && f != 0 {
			t.Fatalf("%s: complete handler has missing fraction %v", h.Name, f)
		}
	}
}

func TestKVMFamilyLinks(t *testing.T) {
	c := fullCorpus
	vm, vcpu := c.Handler("kvm_vm"), c.Handler("kvm_vcpu")
	if vm == nil || vcpu == nil {
		t.Fatal("kvm secondary handlers missing")
	}
	if vm.Parent != "kvm" || vcpu.Parent != "kvm_vm" {
		t.Fatalf("bad parents: %q %q", vm.Parent, vcpu.Parent)
	}
	kvm := c.Handler("kvm")
	if kvm.CmdByName(vm.CreatedBy) == nil {
		t.Fatalf("kvm lacks creating command %s", vm.CreatedBy)
	}
	if kvm.CmdByName(vm.CreatedBy).MakesRes != "kvm_vm" {
		t.Fatal("KVM_CREATE_VM does not make the kvm_vm resource")
	}
}

func TestIndirectCmdsInvisibleInSwitch(t *testing.T) {
	h := fullCorpus.Handler("ptmx")
	src := fullCorpus.Index.Files()[h.SourcePath()]
	for i := range h.Cmds {
		c := &h.Cmds[i]
		if !c.Indirect {
			continue
		}
		if strings.Contains(src, "case "+c.Name) || strings.Contains(src, "case "+cmdNrMacro(c.Name)) {
			t.Fatalf("indirect cmd %s appears as a switch case", c.Name)
		}
		if !strings.Contains(src, "register_op(&ptmx_op_table, "+c.Name) {
			t.Fatalf("indirect cmd %s not dynamically registered", c.Name)
		}
	}
}

func TestGateEval(t *testing.T) {
	cases := []struct {
		g    FieldGate
		v    uint64
		want bool
	}{
		{FieldGate{Op: GateEq, Value: 5}, 5, true},
		{FieldGate{Op: GateEq, Value: 5}, 6, false},
		{FieldGate{Op: GateNe, Value: 5}, 6, true},
		{FieldGate{Op: GateLt, Value: 5}, 4, true},
		{FieldGate{Op: GateGt, Value: 5}, 6, true},
		{FieldGate{Op: GateInRange, Value: 2, Max: 4}, 3, true},
		{FieldGate{Op: GateInRange, Value: 2, Max: 4}, 5, false},
		{FieldGate{Op: GateNonZero}, 1, true},
		{FieldGate{Op: GateNonZero}, 0, false},
	}
	for i, tc := range cases {
		if got := tc.g.Eval(tc.v); got != tc.want {
			t.Errorf("case %d: Eval(%d) = %v, want %v", i, tc.v, got, tc.want)
		}
	}
}

func TestCmdValueEncoding(t *testing.T) {
	h := fullCorpus.Handler("cec")
	c := h.CmdByName("CEC_TRANSMIT")
	v := h.CmdValue(c, fullCorpus.Index.Sizeof)
	if ccode.IOCNr(v) != uint64(c.NR) || ccode.IOCDir(v) != 3 {
		t.Fatalf("bad CEC_TRANSMIT encoding %#x", v)
	}
	plain := Cmd{Name: "X", NR: 42, Plain: true}
	if h.CmdValue(&plain, nil) != 42 {
		t.Fatal("plain cmd value must be the raw NR")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, b := Build(TestConfig()), Build(TestConfig())
	if len(a.Handlers) != len(b.Handlers) {
		t.Fatal("nondeterministic handler count")
	}
	for i := range a.Handlers {
		if a.Handlers[i].Name != b.Handlers[i].Name {
			t.Fatalf("nondeterministic order at %d: %s vs %s",
				i, a.Handlers[i].Name, b.Handlers[i].Name)
		}
		sa := RenderC(a.Handlers[i])
		sb := RenderC(b.Handlers[i])
		if sa != sb {
			t.Fatalf("nondeterministic render for %s", a.Handlers[i].Name)
		}
	}
}

func TestQuickGenDriverValid(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		name := "q" + randName(seed)
		h := genDriver(name, 1+int(n%20), Quirk(seed%512))
		if len(h.Cmds) == 0 {
			return false
		}
		// Unique command names and NRs.
		seen := map[string]bool{}
		for _, c := range h.Cmds {
			if seen[c.Name] {
				return false
			}
			seen[c.Name] = true
		}
		// Renders and the oracle spec parses.
		src := RenderC(h)
		if len(src) == 0 {
			return false
		}
		spec := OracleSpec(h)
		text := syzlang.Format(spec)
		_, errs := syzlang.Parse(text)
		return len(errs) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randName(seed uint64) string {
	const chars = "abcdefghijklmnopqrstuvwxyz"
	var b strings.Builder
	for i := 0; i < 6; i++ {
		seed = seed*6364136223846793005 + 1
		b.WriteByte(chars[seed%26])
	}
	return b.String()
}

// TestFamilySpecWalksDescendants: a family spec merges its handler's
// spec with each descendant's, depth first, and a handler without a
// spec of the asked kind contributes nothing.
func TestFamilySpecWalksDescendants(t *testing.T) {
	c := fullCorpus
	kvm, vm, vcpu := c.Handler("kvm"), c.Handler("kvm_vm"), c.Handler("kvm_vcpu")
	for _, tc := range []struct {
		what string
		spec func(*Handler) *syzlang.File
	}{{"oracle", OracleSpec}, {"human", SyzkallerSpec}} {
		got := syzlang.Format(c.FamilySpec(kvm, tc.spec))
		want := syzlang.Format(syzlang.MergeDedup(tc.spec(kvm), tc.spec(vm), tc.spec(vcpu)))
		if got != want {
			t.Fatalf("%s family of kvm:\n%s\nwant:\n%s", tc.what, got, want)
		}
	}
	for _, h := range c.Handlers {
		if SyzkallerSpec(h) == nil && h.Parent == "" {
			if text := syzlang.Format(c.FamilySpec(h, SyzkallerSpec)); text != "" {
				t.Fatalf("%s has no human spec, but its family declares:\n%s", h.Name, text)
			}
			return
		}
	}
	t.Fatal("every root handler has a human spec")
}

// TestWidestSuiteCoversEveryLoadedHandler: the widest suite validates
// and declares every loaded handler's oracle syscalls and the plumbing
// surface.
func TestWidestSuiteCoversEveryLoadedHandler(t *testing.T) {
	c := Build(TestConfig())
	spec, err := c.WidestSuite()
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, s := range spec.Syscalls {
		have[s.Name()] = true
	}
	parts := []*syzlang.File{c.PlumbingSuite()}
	for _, h := range c.Handlers {
		if h.Loaded {
			parts = append(parts, OracleSpec(h))
		}
	}
	for _, f := range parts {
		for _, s := range f.Syscalls {
			if !have[s.Name()] {
				t.Fatalf("widest suite lacks %s", s.Name())
			}
		}
	}
}
