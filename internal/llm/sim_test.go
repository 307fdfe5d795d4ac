package llm

import (
	"context"
	"strings"
	"testing"
	"testing/quick"
)

// complete is the test shorthand for the context-aware Client call.
func complete(m Client, msgs []Message) (string, error) {
	resp, err := m.Complete(context.Background(), Request{Messages: msgs})
	return resp.Text, err
}

const simDMSource = `
#define DM_NAME "device-mapper"
#define DM_DIR "mapper"
#define DM_NODE "control"
#define DM_IOC_MAGIC 0xfd
#define DM_VERSION_CMD 0
#define DM_VERSION _IOWR(DM_IOC_MAGIC, DM_VERSION_CMD, struct dm_ioctl)

struct dm_ioctl {
	__u32 version[3];
	__u32 data_size;
	__u32 count;	/* number of entries in data */
	char data[];
};

static int dm_do_version(struct dm_ioctl *param)
{
	if (param->data_size < 1 || param->data_size > 64)
		return -EINVAL;
	return 0;
}

static long dm_ioctl_fn(struct file *file, unsigned int command, unsigned long u)
{
	unsigned int cmd;
	cmd = _IOC_NR(command);
	switch (cmd) {
	case DM_VERSION_CMD: {
		struct dm_ioctl req;
		if (copy_from_user(&req, (struct dm_ioctl __user *)u, sizeof(struct dm_ioctl)))
			return -EFAULT;
		return dm_do_version(&req);
	}
	default:
		return -ENOTTY;
	}
}

static const struct file_operations dmx_fops = {
	.unlocked_ioctl = dm_ioctl_fn,
};

static struct miscdevice dmx_misc = {
	.name = DM_NAME,
	.nodename = DM_DIR "/" DM_NODE,
	.fops = &dmx_fops,
};
`

func identPrompt(src string, unknowns string) []Message {
	var b strings.Builder
	b.WriteString(SecInstruction + "\nAnalyze the handler and generate the identifier values.\n")
	if unknowns != "" {
		b.WriteString(SecUnknown + "\n" + unknowns + "\n")
	}
	b.WriteString(SecSource + "\n" + src + "\n")
	return []Message{{Role: "user", Content: b.String()}}
}

func TestSimIdentNodenameAndInversion(t *testing.T) {
	m := NewSim("gpt-4", 99)
	reply, err := complete(m, identPrompt(simDMSource, ""))
	if err != nil {
		t.Fatal(err)
	}
	r := ParseIdentResult(reply)
	if r.DevicePath != "/dev/mapper/control" {
		t.Fatalf("device path = %q", r.DevicePath)
	}
	if len(r.Cmds) != 1 || r.Cmds[0].Macro != "DM_VERSION" {
		t.Fatalf("inversion failed: %+v", r.Cmds)
	}
	if r.Cmds[0].Dir != "inout" || r.Cmds[0].Arg != "dm_ioctl" {
		t.Fatalf("dir/arg wrong: %+v", r.Cmds[0])
	}
}

func TestSimGPT35KeepsRawLabel(t *testing.T) {
	m := NewSim("gpt-3.5", 99)
	reply, _ := complete(m, identPrompt(simDMSource, ""))
	r := ParseIdentResult(reply)
	found := false
	for _, c := range r.Cmds {
		if strings.HasPrefix(c.Macro, "DM_VERSION_CMD") {
			found = true
		}
	}
	if !found && len(r.Cmds) > 0 {
		t.Fatalf("gpt-3.5 should report the raw (modified) label: %+v", r.Cmds)
	}
}

// TestSimGPT35UsesNameNotNodename: on a miscdevice that sets both
// .name and .nodename, a profile that understands nodename reports the
// nodename path and one that does not falls back to /dev/<name>.
func TestSimGPT35UsesNameNotNodename(t *testing.T) {
	path := func(m *SimModel) string {
		reply, err := complete(m, identPrompt(simDMSource, ""))
		if err != nil {
			t.Fatal(err)
		}
		return ParseIdentResult(reply).DevicePath
	}
	for _, model := range ModelNames() {
		want := "/dev/device-mapper"
		if ProfileFor(model).Nodename {
			want = "/dev/mapper/control"
		}
		if got := path(NewSim(model, 99)); got != want {
			t.Errorf("%s reports %q, want %q", model, got, want)
		}
	}
	blind := NewSim("gpt-3.5", 99)
	blind.caps.Nodename = false
	if got := path(blind); got != "/dev/device-mapper" {
		t.Errorf("a profile without Nodename reports %q, want the .name path", got)
	}
}

func typePrompt(src, wanted string) []Message {
	var b strings.Builder
	b.WriteString(SecInstruction + "\nGenerate the Syzkaller type definitions for the structures.\n")
	b.WriteString(SecUnknown + "\n- TYPE: " + wanted + " USAGE: payload\n")
	b.WriteString(SecSource + "\n" + src + "\n")
	return []Message{{Role: "user", Content: b.String()}}
}

func TestSimTypeRecovery(t *testing.T) {
	m := NewSim("gpt-4", 12345)
	reply, _ := complete(m, typePrompt(simDMSource, "dm_ioctl"))
	r := ParseTypeResult(reply)
	if !strings.Contains(r.Defs, "dm_ioctl {") {
		t.Fatalf("struct not emitted:\n%s", r.Defs)
	}
	if !strings.Contains(r.Defs, "array[int32, 3]") {
		t.Fatalf("fixed array lost:\n%s", r.Defs)
	}
	// Range from the validation code in dm_do_version.
	if !strings.Contains(r.Defs, "int32[1:64]") {
		t.Fatalf("code range not recovered:\n%s", r.Defs)
	}
	// Len relation from the comment.
	if !strings.Contains(r.Defs, "len[data") {
		t.Fatalf("len relation not recovered:\n%s", r.Defs)
	}
}

func TestSimGPT35NoLenRelation(t *testing.T) {
	m := NewSim("gpt-3.5", 12345)
	reply, _ := complete(m, typePrompt(simDMSource, "dm_ioctl"))
	r := ParseTypeResult(reply)
	if strings.Contains(r.Defs, "len[") {
		t.Fatalf("gpt-3.5 must not infer len relations:\n%s", r.Defs)
	}
}

func TestSimRepairFixesInjectedErrors(t *testing.T) {
	m := NewSim("gpt-4", 5)
	spec := `resource fd_x[fd]
openat$x(fd const[AT_FDCWD], file ptr[in, string["/dev/x"]], flags const[O_RDWR], mode const[0]) fd_x
ioctl$A(fd fd_x, cmd const[CMD_A_FIXME], arg ptr[in, x_t])

x_t {
	a	int3
	n	len[wrongx, int32]
	items	array[int64]
}
`
	var b strings.Builder
	b.WriteString(SecInstruction + "\nPlease repair the specification.\n")
	b.WriteString(SecErrors + "\nunknown constant CMD_A_FIXME\n")
	b.WriteString(SecSpec + "\n" + spec + "\n")
	b.WriteString(SecSource + "\n#define CMD_A 1\n")
	reply, _ := complete(m, []Message{{Role: "user", Content: b.String()}})
	fixed := ExtractSection(reply, "## Repaired Specification")
	if strings.Contains(fixed, "_FIXME]") {
		t.Fatalf("macro corruption not repaired:\n%s", fixed)
	}
	if strings.Contains(fixed, "int3\n") || strings.Contains(fixed, "int3\t") || strings.Contains(fixed, "int3 ") {
		t.Fatalf("int3 not repaired:\n%s", fixed)
	}
	if !strings.Contains(fixed, "len[items") {
		t.Fatalf("len target not repointed:\n%s", fixed)
	}
}

func TestSimDeterministic(t *testing.T) {
	a, _ := complete(NewSim("gpt-4", 7), identPrompt(simDMSource, ""))
	b, _ := complete(NewSim("gpt-4", 7), identPrompt(simDMSource, ""))
	if a != b {
		t.Fatal("same seed must give identical completions")
	}
	c, _ := complete(NewSim("gpt-4", 8), identPrompt(simDMSource, ""))
	_ = c // different seeds may differ; only determinism is required
}

func TestUsageAccumulates(t *testing.T) {
	m := NewSim("gpt-4", 1)
	complete(m, identPrompt(simDMSource, "")) //nolint:errcheck
	u1 := m.Usage()
	complete(m, identPrompt(simDMSource, "")) //nolint:errcheck
	u2 := m.Usage()
	if u2.Calls != u1.Calls+1 || u2.PromptTokens <= u1.PromptTokens {
		t.Fatalf("usage not accumulating: %+v %+v", u1, u2)
	}
}

func TestExtractSectionLineAnchored(t *testing.T) {
	text := "## A\nvalue\nindented:\n    ## B\nhidden\n## B\nreal\n"
	if got := ExtractSection(text, "## B"); got != "real" {
		t.Fatalf("ExtractSection = %q, want %q", got, "real")
	}
	if got := ExtractSection(text, "## A"); !strings.HasPrefix(got, "value") {
		t.Fatalf("ExtractSection A = %q", got)
	}
	if ExtractSection(text, "## C") != "" {
		t.Fatal("missing section must be empty")
	}
}

func TestProtocolRoundTrips(t *testing.T) {
	ident := &IdentResult{
		DevicePath: "/dev/foo",
		Cmds: []CmdDecl{
			{Macro: "FOO_SET", Handler: "foo_set", Arg: "foo_req", Dir: "in"},
			{Macro: "FOO_GET", ArgInt: true, Dir: "out", Plain: true},
		},
		Calls:   []SockCallDecl{{Call: "bind", Addr: "sockaddr_foo", Fn: "foo_bind"}},
		Unknown: []UnknownRef{{Kind: "FUNC", Name: "foo_dispatch", Usage: "return foo_dispatch(cmd)"}},
	}
	r := ParseIdentResult(FormatIdentResult(ident))
	if r.DevicePath != ident.DevicePath || len(r.Cmds) != 2 || len(r.Calls) != 1 || len(r.Unknown) != 1 {
		t.Fatalf("round trip lost data: %+v", r)
	}
	if r.Cmds[0].Arg != "foo_req" || !r.Cmds[1].ArgInt || !r.Cmds[1].Plain {
		t.Fatalf("cmd fields lost: %+v", r.Cmds)
	}
	if r.Calls[0].Fn != "foo_bind" {
		t.Fatalf("call fn lost: %+v", r.Calls)
	}
	dep := &DepResult{Deps: []DepDecl{{Cmd: "KVM_CREATE_VM", Creates: "kvm_vm", Fops: "kvm_vm_fops"}}}
	d := ParseDepResult(FormatDepResult(dep))
	if len(d.Deps) != 1 || d.Deps[0].Creates != "kvm_vm" {
		t.Fatalf("dep round trip lost data: %+v", d)
	}
}

func TestQuickSimNeverPanics(t *testing.T) {
	m := NewSim("gpt-4", 3)
	f := func(body []byte) bool {
		msgs := identPrompt(string(body), "")
		_, err := complete(m, msgs)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCountTokens(t *testing.T) {
	if CountTokens("") != 0 {
		t.Fatal("empty string has tokens")
	}
	if CountTokens("abcd") != 1 || CountTokens("abcde") != 2 {
		t.Fatalf("token estimate wrong: %d %d", CountTokens("abcd"), CountTokens("abcde"))
	}
}

func TestProfiles(t *testing.T) {
	if !ProfileFor("gpt-4").IdentifierMod {
		t.Fatal("gpt-4 must understand identifier modification")
	}
	if ProfileFor("gpt-3.5").IdentifierMod {
		t.Fatal("gpt-3.5 must not understand identifier modification")
	}
	if ProfileFor("unknown-model") != ProfileFor("gpt-4") {
		t.Fatal("unknown models default to gpt-4")
	}
	if len(ModelNames()) != 3 {
		t.Fatal("three models expected")
	}
}
