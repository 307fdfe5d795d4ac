package ccode

import (
	"strings"
	"testing"
	"testing/quick"
)

const dmSource = `
/* Device mapper control interface. */
#define DM_DIR "mapper"
#define DM_CONTROL_NODE "control"
#define DM_NAME "device-mapper"
#define DM_IOCTL 0xfd
#define DM_VERSION_CMD 0
#define DM_LIST_DEVICES_CMD 17
#define DM_VERSION _IOWR(DM_IOCTL, DM_VERSION_CMD, struct dm_ioctl)
#define DM_LIST_DEVICES _IOWR(DM_IOCTL, DM_LIST_DEVICES_CMD, struct dm_ioctl)

struct dm_ioctl {
	__u32 version[3];	/* ioctl interface version */
	__u32 data_size;	/* total size of data passed in */
	__u32 data_start;
	__u32 target_count;
	__u32 open_count;
	__u32 flags;
	char name[128];
	char data[];
};

/* Process a dm ioctl from userspace. */
static int ctl_ioctl(struct file *file, uint command, struct dm_ioctl *u)
{
	/* Only root can play with this. */
	uint cmd;
	cmd = _IOC_NR(command);
	if (cmd == DM_VERSION_CMD)
		return 0;
	fn = lookup_ioctl(cmd, &ioctl_flags);
	copy_from_user(param, u, sizeof(struct dm_ioctl));
	return 0;
}

static long dm_ctl_ioctl(struct file *file, uint command, ulong u)
{
	return ctl_ioctl(file, command, (struct dm_ioctl *)u);
}

static const struct file_operations _ctl_fops = {
	.open = dm_open,
	.unlocked_ioctl = dm_ctl_ioctl,
	.compat_ioctl = dm_compat_ctl_ioctl,
	.owner = THIS_MODULE,
};

static struct miscdevice _dm_misc = {
	.minor = MAPPER_CTRL_MINOR,
	.name = DM_NAME,
	.nodename = DM_DIR "/" DM_CONTROL_NODE,
	.fops = &_ctl_fops,
};

enum dm_state {
	DM_ACTIVE = 1,
	DM_SUSPENDED,
};
`

func dmIndex() *Index {
	return NewIndex(map[string]string{"drivers/md/dm-ioctl.c": dmSource})
}

func TestIndexFunctions(t *testing.T) {
	ix := dmIndex()
	fn := ix.Function("dm_ctl_ioctl")
	if fn == nil {
		t.Fatal("dm_ctl_ioctl not indexed")
	}
	if !fn.Static {
		t.Fatalf("bad function: %+v", fn)
	}
	if !strings.Contains(fn.Body, "ctl_ioctl") {
		t.Fatalf("body not captured: %q", fn.Body)
	}
	if got := ix.Function("ctl_ioctl"); got == nil || got.Comment == "" {
		t.Fatalf("ctl_ioctl missing or lost doc comment: %+v", got)
	}
}

func TestIndexStruct(t *testing.T) {
	ix := dmIndex()
	st := ix.StructDef("dm_ioctl")
	if st == nil {
		t.Fatal("dm_ioctl not indexed")
	}
	if len(st.Fields) != 8 {
		t.Fatalf("want 8 fields, got %d: %+v", len(st.Fields), st.Fields)
	}
	if st.Fields[0].Name != "version" || !st.Fields[0].IsArray || st.Fields[0].Array != "3" {
		t.Fatalf("bad version field: %+v", st.Fields[0])
	}
	if st.Fields[1].Comment == "" {
		t.Fatalf("field comment lost: %+v", st.Fields[1])
	}
	last := st.Fields[7]
	if last.Name != "data" || !last.IsArray || strings.TrimSpace(last.Array) != "" {
		t.Fatalf("bad flexible array field: %+v", last)
	}
	if st.Comment == "" {
		t.Fatal("struct doc comment lost")
	}
}

func TestIndexRegistrations(t *testing.T) {
	ix := dmIndex()
	fops := ix.Registrations("file_operations")
	if len(fops) != 1 {
		t.Fatalf("want 1 file_operations reg, got %d", len(fops))
	}
	if fops[0].Fields["unlocked_ioctl"] != "dm_ctl_ioctl" {
		t.Fatalf("bad unlocked_ioctl: %q", fops[0].Fields["unlocked_ioctl"])
	}
	misc := ix.Registrations("miscdevice")
	if len(misc) != 1 {
		t.Fatalf("want 1 miscdevice reg, got %d", len(misc))
	}
	if misc[0].Fields["fops"] != "& _ctl_fops" {
		t.Fatalf("bad fops ref: %q", misc[0].Fields["fops"])
	}
	if fops[0].VarName != "_ctl_fops" {
		t.Fatalf("bad file_operations variable: %q", fops[0].VarName)
	}
}

func TestEvalStringConcat(t *testing.T) {
	ix := dmIndex()
	misc := ix.Registrations("miscdevice")[0]
	name, ok := ix.EvalString(misc.Fields["nodename"])
	if !ok || name != "mapper/control" {
		t.Fatalf("nodename eval = %q, %v", name, ok)
	}
	plain, ok := ix.EvalString(misc.Fields["name"])
	if !ok || plain != "device-mapper" {
		t.Fatalf("name eval = %q, %v", plain, ok)
	}
}

func TestEvalIoctlMacro(t *testing.T) {
	ix := dmIndex()
	v, ok := ix.ResolveMacroInt("DM_VERSION")
	if !ok {
		t.Fatal("DM_VERSION did not evaluate")
	}
	// dir=3 (RW), size=sizeof(dm_ioctl)=164, type=0xfd, nr=0.
	wantSize := uint64(ix.Sizeof("struct dm_ioctl"))
	if IOCDir(v) != 3 || IOCSize(v) != wantSize || IOCNr(v) != 0 {
		t.Fatalf("bad encoding: dir=%d size=%d nr=%d", IOCDir(v), IOCSize(v), IOCNr(v))
	}
	v2, _ := ix.ResolveMacroInt("DM_LIST_DEVICES")
	if IOCNr(v2) != 17 {
		t.Fatalf("bad nr for DM_LIST_DEVICES: %d", IOCNr(v2))
	}
}

func TestSizeof(t *testing.T) {
	ix := dmIndex()
	// 3*4 + 5*4 + 128 + 0 (flexible) = 160, already 4-aligned.
	if got := ix.Sizeof("struct dm_ioctl"); got != 160 {
		t.Fatalf("sizeof dm_ioctl = %d, want 160", got)
	}
	if got := ix.Sizeof("__u64"); got != 8 {
		t.Fatalf("sizeof __u64 = %d", got)
	}
	if got := ix.Sizeof("struct nothere"); got != 0 {
		t.Fatalf("sizeof unknown = %d, want 0", got)
	}
}

func TestSizeofAlignment(t *testing.T) {
	src := `
struct padded {
	__u8 a;
	__u64 b;
	__u16 c;
};
`
	ix := NewIndex(map[string]string{"x.c": src})
	// a at 0, b at 8 (7 pad), c at 16, total 18 → pad to 24.
	if got := ix.Sizeof("struct padded"); got != 24 {
		t.Fatalf("sizeof padded = %d, want 24", got)
	}
}

func TestSizeofUnion(t *testing.T) {
	src := `
union u {
	__u32 a;
	__u64 b;
	char buf[12];
};
`
	ix := NewIndex(map[string]string{"x.c": src})
	// max(4, 8, 12) = 12 → pad to align 8 → 16.
	if got := ix.Sizeof("union u"); got != 16 {
		t.Fatalf("sizeof union = %d, want 16", got)
	}
}

func TestEnumValues(t *testing.T) {
	ix := dmIndex()
	if v, ok := ix.EnumVals["DM_SUSPENDED"]; !ok || v != 2 {
		t.Fatalf("DM_SUSPENDED = %d, %v", v, ok)
	}
}

func TestExtractCode(t *testing.T) {
	ix := dmIndex()
	for _, ident := range []string{"dm_ctl_ioctl", "dm_ioctl", "DM_VERSION", "dm_state"} {
		if _, ok := ix.ExtractCode(ident); !ok {
			t.Fatalf("ExtractCode(%q) failed", ident)
		}
	}
	if _, ok := ix.ExtractCode("no_such_thing"); ok {
		t.Fatal("ExtractCode found a ghost")
	}
}

func TestConstTable(t *testing.T) {
	ix := dmIndex()
	ct := ix.ConstTable()
	if ct["DM_IOCTL"] != 0xfd {
		t.Fatalf("DM_IOCTL = %#x", ct["DM_IOCTL"])
	}
	if _, ok := ct["DM_VERSION"]; !ok {
		t.Fatal("ioctl macro missing from const table")
	}
	if ct["DM_ACTIVE"] != 1 {
		t.Fatalf("enum value missing: %v", ct["DM_ACTIVE"])
	}
}

func TestAnalyzeBodyDMHandler(t *testing.T) {
	ix := dmIndex()
	info := AnalyzeBody(ix.Function("dm_ctl_ioctl").Body)
	if len(info.Delegations) != 1 || info.Delegations[0].Name != "ctl_ioctl" {
		t.Fatalf("delegation not detected: %+v", info.Delegations)
	}
}

func TestAnalyzeBodyAssignsAndCopies(t *testing.T) {
	ix := dmIndex()
	info := AnalyzeBody(ix.Function("ctl_ioctl").Body)
	if got := info.Assigns["cmd"]; !strings.Contains(got, "_IOC_NR") {
		t.Fatalf("assignment to cmd not captured: %q", got)
	}
	if len(info.CopyFromUser) != 1 || info.CopyFromUser[0] != "dm_ioctl" {
		t.Fatalf("copy_from_user type not captured: %+v", info.CopyFromUser)
	}
	if len(info.Comments) == 0 {
		t.Fatal("body comments not captured")
	}
}

func TestAnalyzeSwitch(t *testing.T) {
	body := `{
	switch (cmd) {
	case CMD_A:
		do_a(arg);
		break;
	case CMD_B: {
		do_b(arg, 1);
		break;
	}
	default:
		return -EINVAL;
	}
}`
	info := AnalyzeBody(body)
	if len(info.Switches) != 1 {
		t.Fatalf("want 1 switch, got %d", len(info.Switches))
	}
	sw := info.Switches[0]
	if sw.Expr != "cmd" || len(sw.Cases) != 2 {
		t.Fatalf("bad switch: %+v", sw)
	}
	if sw.Cases[0].Label != "CMD_A" || sw.Cases[1].Label != "CMD_B" {
		t.Fatalf("bad labels: %+v", sw.Cases)
	}
	if len(sw.Cases[1].Calls) != 1 || sw.Cases[1].Calls[0] != "do_b" {
		t.Fatalf("bad case calls: %+v", sw.Cases[1])
	}
	if !HasIdent(sw.Expr, "cmd") || HasIdent(sw.Expr, "other") {
		t.Fatalf("switch on %q attributed wrongly", sw.Expr)
	}
}

func TestAnalyzeSwitchOnModifiedExpr(t *testing.T) {
	body := `{
	switch (_IOC_NR(command)) {
	case 3:
		break;
	}
}`
	info := AnalyzeBody(body)
	if len(info.Switches) != 1 || !HasIdent(info.Switches[0].Expr, "command") {
		t.Fatalf("switch on _IOC_NR(command) not attributed to command: %+v", info.Switches)
	}
}

func TestIOCRoundTrip(t *testing.T) {
	f := func(dir8, typ, nr uint8, size16 uint16) bool {
		dir := uint64(dir8 % 4)
		size := uint64(size16 % (1 << 14))
		cmd := IOC(dir, uint64(typ), uint64(nr), size)
		return IOCDir(cmd) == dir && IOCNr(cmd) == uint64(nr) && IOCSize(cmd) == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLexCNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		LexC(string(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIndexNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		NewIndex(map[string]string{"f.c": string(data)})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalIntExpressions(t *testing.T) {
	ix := NewIndex(map[string]string{"x.h": `
#define A 4
#define B (1 << A)
#define C (A | B)
#define D 'M'
#define E (B + 2 - 1)
`})
	cases := map[string]uint64{"A": 4, "B": 16, "C": 20, "D": 'M', "E": 17}
	for name, want := range cases {
		got, ok := ix.ResolveMacroInt(name)
		if !ok || got != want {
			t.Errorf("%s = %d (ok=%v), want %d", name, got, ok, want)
		}
	}
	if _, ok := ix.EvalInt("UNDEFINED_THING"); ok {
		t.Error("undefined macro evaluated")
	}
}

func TestMacroRecursionBounded(t *testing.T) {
	ix := NewIndex(map[string]string{"x.h": "#define LOOP LOOP\n"})
	if _, ok := ix.ResolveMacroInt("LOOP"); ok {
		t.Fatal("self-referential macro evaluated")
	}
}
