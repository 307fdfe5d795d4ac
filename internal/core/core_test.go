package core

import (
	"context"
	"strings"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/syzlang"
)

var testCorpus = corpus.Build(corpus.TestConfig())

var ctx = context.Background()

func gen(t *testing.T, model string, seed uint64, opts Options) *Generator {
	t.Helper()
	return New(llm.NewSim(model, seed), testCorpus, opts)
}

func TestDeviceMapperPipeline(t *testing.T) {
	g := gen(t, "gpt-4", 1, DefaultOptions())
	dm := testCorpus.Handler("dm")
	res := g.GenerateFor(ctx, dm)
	if !res.Valid {
		t.Fatalf("dm spec generation failed: errors=%v", res.RemainingErrors)
	}
	text := syzlang.Format(res.Spec)
	// The true nodename path, not the misc .name.
	if !strings.Contains(text, "/dev/mapper/control") {
		t.Fatalf("dm spec lost the nodename path:\n%s", text)
	}
	if strings.Contains(text, "/dev/device-mapper") {
		t.Fatalf("dm spec used the wrong .name path:\n%s", text)
	}
	// Full _IOC-encoded macros, not the raw nr macros, despite the
	// _IOC_NR modification + table dispatch.
	if !strings.Contains(text, "const[DM_LIST_DEVICES]") {
		t.Fatalf("dm spec missing inverted command macro:\n%s", text)
	}
	if strings.Contains(text, "const[DM_LIST_DEVICES_CMD]") {
		t.Fatalf("dm spec used the modified (nr) value:\n%s", text)
	}
	// The shared dm_ioctl payload struct with its len relation.
	if !strings.Contains(text, "dm_ioctl {") {
		t.Fatalf("dm_ioctl struct missing:\n%s", text)
	}
	if !strings.Contains(text, "len[data, int32]") {
		t.Fatalf("len relation not recovered:\n%s", text)
	}
	if res.NewSyscalls() < 15 {
		t.Fatalf("dm spec describes only %d syscalls", res.NewSyscalls())
	}
}

func TestCECPipelineRangesAndComments(t *testing.T) {
	g := gen(t, "gpt-4", 2, DefaultOptions())
	res := g.GenerateFor(ctx, testCorpus.Handler("cec"))
	if !res.Valid {
		t.Fatalf("cec generation failed: %v", res.RemainingErrors)
	}
	text := syzlang.Format(res.Spec)
	// num_log_addrs range comes only from the comment (the cec
	// handler has QuirkCommentHint).
	if !strings.Contains(text, "int8[0:4]") {
		t.Fatalf("comment-hinted range not recovered:\n%s", text)
	}
	// Out fields annotated.
	if !strings.Contains(text, "(out)") {
		t.Fatalf("out attribute missing:\n%s", text)
	}
}

func TestGPT35MissesPatterns(t *testing.T) {
	g4 := gen(t, "gpt-4", 3, DefaultOptions())
	g35 := gen(t, "gpt-3.5", 3, DefaultOptions())
	dm := testCorpus.Handler("dm")
	r4, r35 := g4.GenerateFor(ctx, dm), g35.GenerateFor(ctx, dm)
	// GPT-3.5 cannot follow the lookup table: far fewer syscalls.
	if r35.NewSyscalls() >= r4.NewSyscalls() {
		t.Fatalf("gpt-3.5 (%d) should describe fewer dm syscalls than gpt-4 (%d)",
			r35.NewSyscalls(), r4.NewSyscalls())
	}
}

func TestValidationRepairLoop(t *testing.T) {
	// Scan several seeds: some must need repair (ErrorRate ≈ 0.45)
	// and repair must succeed for most.
	direct, repaired := 0, 0
	for seed := uint64(0); seed < 12; seed++ {
		g := gen(t, "gpt-4", seed, DefaultOptions())
		res := g.GenerateFor(ctx, testCorpus.Handler("cec"))
		if !res.Valid {
			continue
		}
		if res.Repaired {
			repaired++
		} else {
			direct++
		}
	}
	if direct == 0 || repaired == 0 {
		t.Fatalf("repair loop not exercised: direct=%d repaired=%d", direct, repaired)
	}
}

func TestRepairDisabledFailsMore(t *testing.T) {
	optsNoRepair := DefaultOptions()
	optsNoRepair.Repair = false
	validWith, validWithout := 0, 0
	for seed := uint64(0); seed < 10; seed++ {
		if gen(t, "gpt-4", seed, DefaultOptions()).GenerateFor(ctx, testCorpus.Handler("ubi_ctrl")).Valid {
			validWith++
		}
		if gen(t, "gpt-4", seed, optsNoRepair).GenerateFor(ctx, testCorpus.Handler("ubi_ctrl")).Valid {
			validWithout++
		}
	}
	if validWithout > validWith {
		t.Fatalf("repair should not reduce validity: with=%d without=%d", validWith, validWithout)
	}
	if validWith == validWithout {
		t.Logf("note: no seed needed repair for ubi_ctrl (with=%d)", validWith)
	}
}

func TestIndirectHandlerFails(t *testing.T) {
	// Fully indirect handlers (the §5.1.3 hard cases) yield no
	// commands, hence no valid spec. The test corpus is too small to
	// hold one; the full-scale corpus has them by construction.
	full := corpus.Build(corpus.Config{Scale: 1})
	var target *corpus.Handler
	for _, h := range full.Incomplete(corpus.KindDriver) {
		if h.Quirks.Has(corpus.QuirkIndirectCall) {
			target = h
			break
		}
	}
	if target == nil {
		t.Fatal("no indirect driver in the full-scale corpus")
	}
	g := New(llm.NewSim("gpt-4", 4), full, DefaultOptions())
	res := g.GenerateFor(ctx, target)
	if res.Valid {
		t.Fatalf("indirect handler %s unexpectedly produced a valid spec with %d syscalls",
			target.Name, res.NewSyscalls())
	}
}

func TestSocketPipeline(t *testing.T) {
	g := gen(t, "gpt-4", 5, DefaultOptions())
	res := g.GenerateFor(ctx, testCorpus.Handler("rds"))
	if !res.Valid {
		t.Fatalf("rds generation failed: %v", res.RemainingErrors)
	}
	text := syzlang.Format(res.Spec)
	if !strings.Contains(text, "socket$rds") {
		t.Fatalf("socket call missing:\n%s", text)
	}
	if !strings.Contains(text, "sendto$rds") {
		t.Fatalf("sendto description missing (the RDS bug path):\n%s", text)
	}
	if !strings.Contains(text, "setsockopt$") {
		t.Fatalf("sockopt descriptions missing:\n%s", text)
	}
	// The sockaddr family field must be pinned to the domain const.
	if !strings.Contains(text, "const[AF_RDS, int16]") {
		t.Fatalf("family field not pinned to AF_RDS:\n%s", text)
	}
}

func TestKVMDependencyDiscovery(t *testing.T) {
	g := gen(t, "gpt-4", 6, DefaultOptions())
	res := g.GenerateFor(ctx, testCorpus.Handler("kvm"))
	g.FollowDependencies(ctx, res, nil)
	if !res.Valid {
		t.Fatalf("kvm generation failed: %v", res.RemainingErrors)
	}
	found := false
	for _, d := range res.Deps {
		if d == "kvm_vm" {
			found = true
		}
	}
	if !found {
		t.Fatalf("kvm_vm dependency not discovered: %v", res.Deps)
	}
	text := syzlang.Format(res.Spec)
	if !strings.Contains(text, "fd_kvm_vm") {
		t.Fatalf("merged family spec lacks fd_kvm_vm:\n%s", text)
	}
	// The creator must return the child resource.
	if !strings.Contains(text, ") fd_kvm_vm") {
		t.Fatalf("KVM_CREATE_VM does not return fd_kvm_vm:\n%s", text)
	}
}

func TestAllInOneDegrades(t *testing.T) {
	iter := gen(t, "gpt-4", 7, DefaultOptions())
	one := DefaultOptions()
	one.AllInOne = true
	single := gen(t, "gpt-4", 7, one)
	// kvm is the paper's showcase: iterative ≫ all-in-one.
	h := testCorpus.Handler("kvm")
	ri, rs := iter.GenerateFor(ctx, h), single.GenerateFor(ctx, h)
	if rs.NewSyscalls() >= ri.NewSyscalls() {
		t.Fatalf("all-in-one (%d syscalls) should underperform iterative (%d)",
			rs.NewSyscalls(), ri.NewSyscalls())
	}
}

func TestWorklistSummary(t *testing.T) {
	g := gen(t, "gpt-4", 8, DefaultOptions())
	worklist := testCorpus.Incomplete(corpus.KindDriver)
	var results []*Result
	for _, h := range worklist {
		results = append(results, g.GenerateFor(ctx, h))
	}
	stats := Summarize(results)
	if stats.Total != len(worklist) {
		t.Fatalf("stats total %d != %d", stats.Total, len(worklist))
	}
	if stats.Valid == 0 || stats.NewSyscalls == 0 {
		t.Fatalf("no valid specs generated: %v", stats)
	}
	frac := float64(stats.Valid) / float64(stats.Total)
	if frac < 0.6 {
		t.Fatalf("valid fraction %.2f too low (paper: 93%%): %v", frac, stats)
	}
}

func TestMergeSpecsDeduplicates(t *testing.T) {
	g := gen(t, "gpt-4", 9, DefaultOptions())
	r1 := g.GenerateFor(ctx, testCorpus.Handler("dm"))
	r2 := g.GenerateFor(ctx, testCorpus.Handler("dm"))
	merged := MergeSpecs([]*Result{r1, r2})
	seen := map[string]int{}
	for _, s := range merged.Syscalls {
		seen[s.Name()]++
	}
	for name, n := range seen {
		if n > 1 {
			t.Fatalf("syscall %s duplicated %d times after merge", name, n)
		}
	}
	if errs := syzlang.Validate(merged, testCorpus.Env()); len(errs) > 0 {
		t.Fatalf("merged suite invalid: %v", errs)
	}
}

func TestGeneratedSpecValidatesAndFormats(t *testing.T) {
	g := gen(t, "gpt-4", 10, DefaultOptions())
	for _, name := range []string{"dm", "cec", "rds", "dvb_demux", "ptp0"} {
		h := testCorpus.Handler(name)
		if h == nil {
			continue
		}
		res := g.GenerateFor(ctx, h)
		if res.Spec == nil {
			t.Fatalf("%s: nil spec", name)
		}
		if !res.Valid {
			t.Fatalf("%s: invalid spec: %v", name, res.RemainingErrors)
		}
		text := syzlang.Format(res.Spec)
		if _, errs := syzlang.Parse(text); len(errs) > 0 {
			t.Fatalf("%s: formatted spec does not reparse: %v", name, errs)
		}
	}
}

func TestUsageAccounting(t *testing.T) {
	client := llm.NewSim("gpt-4", 11)
	g := New(client, testCorpus, DefaultOptions())
	g.GenerateFor(ctx, testCorpus.Handler("dm"))
	u := client.Usage()
	if u.Calls == 0 || u.PromptTokens == 0 || u.CompletionTokens == 0 {
		t.Fatalf("usage not accounted: %+v", u)
	}
	if u.CostUSD() <= 0 {
		t.Fatal("cost must be positive")
	}
}

func TestCharDevDeviceDiscovery(t *testing.T) {
	g := gen(t, "gpt-4", 12, DefaultOptions())
	res := g.GenerateFor(ctx, testCorpus.Handler("ptp0"))
	if res.Spec == nil {
		t.Fatal("nil spec")
	}
	text := syzlang.Format(res.Spec)
	if !strings.Contains(text, `"/dev/ptp0"`) {
		t.Fatalf("chardev path not discovered:\n%s", text)
	}
}

func TestTraceRecordsExchanges(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	g := gen(t, "gpt-4", 13, opts)
	res := g.GenerateFor(ctx, testCorpus.Handler("dm"))
	if len(res.Transcript) == 0 {
		t.Fatal("trace enabled but no exchanges recorded")
	}
	stages := map[string]bool{}
	for _, ex := range res.Transcript {
		stages[ex.Stage] = true
		if ex.Prompt == "" || ex.Completion == "" {
			t.Fatalf("empty exchange in stage %s", ex.Stage)
		}
	}
	for _, want := range []string{"identifier", "type", "dependency"} {
		if !stages[want] {
			t.Fatalf("stage %s missing from transcript: %v", want, stages)
		}
	}
	// Trace off: no transcript.
	g2 := gen(t, "gpt-4", 13, DefaultOptions())
	if res2 := g2.GenerateFor(ctx, testCorpus.Handler("dm")); len(res2.Transcript) != 0 {
		t.Fatal("transcript recorded without Trace")
	}
}

// vmFlags is a flags set the kvm_vm type stage is made to declare: the
// simulated models never write one, so flagsClient adds it to that
// stage's reply.
const vmFlags = "kvm_vm_create_flags = KVM_CREATE_VM, KVM_CREATE_VCPU"

type flagsClient struct{ llm.Client }

func (c flagsClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	resp, err := c.Client.Complete(ctx, req)
	if req.Purpose == "type" && req.Driver == "kvm_vm" {
		resp.Text = strings.Replace(resp.Text, "## Type Definitions\n", "## Type Definitions\n"+vmFlags+"\n", 1)
	}
	return resp, err
}

// usesFlags reports whether a call takes flags[set, ...] directly.
func usesFlags(s *syzlang.SyscallDef, set string) bool {
	for _, a := range s.Args {
		te := a.Type
		if te.Ident == "flags" && len(te.Args) > 0 && te.Args[0].Type != nil && te.Args[0].Type.Ident == set {
			return true
		}
	}
	return false
}

// TestFamilySharesFlagsSet: a parent spec and its dependency's spec
// that declare the same flags set merge into a family that declares
// it once, and every call using it survives validation of the family.
func TestFamilySharesFlagsSet(t *testing.T) {
	newGen := func() *Generator {
		return New(flagsClient{llm.NewSim("gpt-4", 6)}, testCorpus, DefaultOptions())
	}
	child := newGen().GenerateFor(ctx, testCorpus.Handler("kvm_vm"))
	if !child.Valid || len(child.Spec.Flags) == 0 {
		t.Fatalf("kvm_vm declares no flags set (valid=%v, errors %v)", child.Valid, child.RemainingErrors)
	}
	set := child.Spec.Flags[0]
	parent, errs := syzlang.Parse(`resource fd_kvm[fd]
resource fd_kvm_vm[fd]
openat$kvm(fd const[AT_FDCWD], file ptr[in, string["/dev/kvm"]], flags const[O_RDWR], mode const[0]) fd_kvm
ioctl$KVM_CREATE_VM(fd fd_kvm, cmd const[KVM_CREATE_VM], type flags[` + set.Name + `, int32]) fd_kvm_vm
` + syzlang.Format(&syzlang.File{Flags: []*syzlang.FlagsDef{set}}))
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if verrs := syzlang.Validate(parent, testCorpus.Env()); len(verrs) > 0 {
		t.Fatalf("hand-built kvm spec invalid: %v", verrs)
	}
	res := &Result{Handler: testCorpus.Handler("kvm"), Spec: parent, Deps: []string{"kvm_vm"}, Valid: true}
	newGen().FollowDependencies(ctx, res, nil)
	if !res.Valid {
		t.Fatalf("kvm family invalid:\n%s", syzlang.Format(res.Spec))
	}
	n := 0
	for _, fl := range res.Spec.Flags {
		if fl.Name == set.Name {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("flags %s declared %d times in the family", set.Name, n)
	}
	have := map[string]bool{}
	for _, s := range res.Spec.Syscalls {
		have[s.Name()] = true
	}
	for _, s := range append(append([]*syzlang.SyscallDef{}, parent.Syscalls...), child.Spec.Syscalls...) {
		if usesFlags(s, set.Name) && !have[s.Name()] {
			t.Fatalf("%s, which uses flags %s, was dropped from the family", s.Name(), set.Name)
		}
	}
}
