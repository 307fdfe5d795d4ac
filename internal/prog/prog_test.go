package prog

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"kernelgpt/internal/syzlang"
)

const testSpec = `
resource fd_dev[fd]
resource fd_sub[fd_dev]

openat$dev(fd const[AT_FDCWD], file ptr[in, string["/dev/testdev"]], flags const[O_RDWR], mode const[0]) fd_dev
ioctl$MAKE_SUB(fd fd_dev, cmd const[MAKE_SUB]) fd_sub
ioctl$SET_CFG(fd fd_dev, cmd const[SET_CFG], arg ptr[in, dev_config])
ioctl$SUB_GO(fd fd_sub, cmd const[SUB_GO], arg ptr[in, int32])
setsockopt$opt(fd fd_dev, level const[1], optname const[2], optval ptr[in, dev_config], optlen len[optval, int32])

dev_config {
	mode	int32[0:7]
	count	len[entries, int32]
	pad	int16
	big	int64
	name	array[int8, 8]
	entries	array[int64]
}
`

func testTarget(t *testing.T) *Target {
	t.Helper()
	f, errs := syzlang.Parse(testSpec)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	env := syzlang.NewEnv(map[string]uint64{
		"AT_FDCWD": 0xffffff9c, "O_RDWR": 2,
		"MAKE_SUB": 0x7001, "SET_CFG": 0x7002, "SUB_GO": 0x7003,
	})
	if verrs := syzlang.Validate(f, env); len(verrs) > 0 {
		t.Fatalf("validate: %v", verrs)
	}
	tgt, err := Compile(f, env)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func TestCompileTarget(t *testing.T) {
	tgt := testTarget(t)
	if len(tgt.Syscalls) != 5 {
		t.Fatalf("want 5 syscalls, got %d", len(tgt.Syscalls))
	}
	open := tgt.ByName["openat$dev"]
	if open == nil || open.Ret != "fd_dev" {
		t.Fatalf("bad openat: %+v", open)
	}
	cfg := tgt.ByName["ioctl$SET_CFG"].Args[2].Type
	if cfg.Kind != KindPtr || cfg.Elem.Kind != KindStruct {
		t.Fatalf("bad arg type: %v", cfg)
	}
	if cfg.Elem.Fields[1].Type.Kind != KindLen || cfg.Elem.Fields[1].Type.LenTarget != "entries" {
		t.Fatalf("len field not compiled: %v", cfg.Elem.Fields[1].Type)
	}
}

func TestCreatorsAndCompatibility(t *testing.T) {
	tgt := testTarget(t)
	// fd_dev is created by openat$dev directly and by ioctl$MAKE_SUB
	// transitively (fd_sub derives from fd_dev).
	names := map[string]bool{}
	for _, sc := range tgt.Creators("fd_dev") {
		names[sc.Name] = true
	}
	if len(names) != 2 || !names["openat$dev"] || !names["ioctl$MAKE_SUB"] {
		t.Fatalf("bad creators for fd_dev: %v", names)
	}
	// fd_sub derives from fd_dev: openat also satisfies... no — the
	// derived resource needs its own creator, but a fd_sub value can
	// be used where fd_dev is wanted.
	if !tgt.compatible("fd_sub", "fd_dev") {
		t.Fatal("fd_sub should be usable as fd_dev")
	}
	if tgt.compatible("fd_dev", "fd_sub") {
		t.Fatal("fd_dev must not be usable as fd_sub")
	}
	// MAKE_SUB creates fd_sub and, transitively, fd_dev.
	found := false
	for _, sc := range tgt.Creators("fd_dev") {
		if sc.Name == "ioctl$MAKE_SUB" {
			found = true
		}
	}
	if found {
		t.Log("MAKE_SUB registered as fd_dev creator (derived)")
	}
}

func TestGenerateSatisfiesDependencies(t *testing.T) {
	tgt := testTarget(t)
	g := NewGen(tgt, 1)
	for i := 0; i < 200; i++ {
		p := g.Generate(6)
		if err := p.Validate(tgt); err != nil {
			t.Fatalf("iteration %d: %v\n%s", i, err, p)
		}
	}
}

func TestGenerateSubResourceChain(t *testing.T) {
	tgt := testTarget(t)
	g := NewGen(tgt, 7)
	g.Enabled = map[string]bool{
		"openat$dev": true, "ioctl$MAKE_SUB": true, "ioctl$SUB_GO": true,
	}
	sawChain := false
	for i := 0; i < 300 && !sawChain; i++ {
		p := g.Generate(5)
		for _, c := range p.Calls {
			if c.Sc.Name != "ioctl$SUB_GO" {
				continue
			}
			if c.Args[0].ResultOf >= 0 && p.Calls[c.Args[0].ResultOf].Sc.Name == "ioctl$MAKE_SUB" {
				sawChain = true
			}
		}
	}
	if !sawChain {
		t.Fatal("generator never built the openat→MAKE_SUB→SUB_GO chain")
	}
}

// packRun is the Data of a run holding elems.
func packRun(elems ...uint64) []byte {
	var data []byte
	for _, e := range elems {
		data = binary.LittleEndian.AppendUint64(data, e)
	}
	return data
}

func TestEncodeStructLayout(t *testing.T) {
	tgt := testTarget(t)
	st := tgt.ByName["ioctl$SET_CFG"].Args[2].Type.Elem
	// Layout: mode@0(4) count@4(4) pad@8(2) [pad 6] big@16(8) name@24(8)
	// entries@32(...). Struct align 8.
	v := &Value{Type: st}
	mk := func(ty *Type, scalar uint64) *Value { return &Value{Type: ty, Scalar: scalar} }
	v.Fields = []*Value{
		mk(st.Fields[0].Type, 5),
		mk(st.Fields[1].Type, 0), // len, fixed later
		mk(st.Fields[2].Type, 0xbbcc),
		mk(st.Fields[3].Type, 0x1122334455667788),
		{Type: st.Fields[4].Type, Data: packRun('a', 'b', 'c', 'd', 'e', 'f', 'g', 'h')},
		{Type: st.Fields[5].Type, Data: packRun(0xdead, 0xbeef)},
	}
	fixLenGroup(st.Fields, v.Fields, true)
	if v.Fields[1].Scalar != 2 {
		t.Fatalf("len fixup = %d, want 2 (elements)", v.Fields[1].Scalar)
	}
	raw := v.Encode()
	if len(raw) != 48 {
		t.Fatalf("encoded size = %d, want 48", len(raw))
	}
	if binary.LittleEndian.Uint32(raw[0:]) != 5 {
		t.Fatal("mode not at offset 0")
	}
	if binary.LittleEndian.Uint32(raw[4:]) != 2 {
		t.Fatal("count not at offset 4")
	}
	if binary.LittleEndian.Uint64(raw[16:]) != 0x1122334455667788 {
		t.Fatal("big not at offset 16 (alignment padding missing)")
	}
	if raw[24] != 'a' || raw[31] != 'h' {
		t.Fatal("name array misplaced")
	}
	if binary.LittleEndian.Uint64(raw[32:]) != 0xdead {
		t.Fatal("entries not at offset 32")
	}
}

// TestArgLevelLenFixup: a len argument follows its sibling pointer
// argument's pointee — through generation, through a resize of the
// pointee (FixupLens writes only what changed, so the write must still
// happen), and down to zero for a NULL pointer.
func TestArgLevelLenFixup(t *testing.T) {
	tgt := testTarget(t)
	g := NewGen(tgt, 3)
	sawNull, sawPointee := false, false
	for i := 0; i < 200; i++ {
		p := g.Generate(1)
		c := p.Calls[g.appendCall(p, tgt.ByName["setsockopt$opt"], 0)]
		optval, optlen := c.Args[3], c.Args[4]
		if optval.Ptr == nil {
			sawNull = true
			if optlen.Scalar != 0 {
				t.Fatalf("optlen = %d for a generated NULL optval, want 0", optlen.Scalar)
			}
			continue
		}
		sawPointee = true
		if want := uint64(len(optval.Ptr.Encode())); optlen.Scalar != want {
			t.Fatalf("optlen = %d, want %d", optlen.Scalar, want)
		}
		entries := optval.Ptr.Fields[5]
		entries.Data = binary.LittleEndian.AppendUint64(entries.Data, 0)
		c.FixupLens()
		if want := uint64(len(optval.Ptr.Encode())); optlen.Scalar != want {
			t.Fatalf("optlen = %d after growing the pointee, want %d", optlen.Scalar, want)
		}
		if count := optval.Ptr.Fields[1].Scalar; count != uint64(entries.RunLen()) {
			t.Fatalf("count = %d after growing entries to %d", count, entries.RunLen())
		}
		optval.Ptr = nil
		c.FixupLens()
		if optlen.Scalar != 0 {
			t.Fatalf("optlen = %d after NULLing optval, want 0", optlen.Scalar)
		}
	}
	if !sawNull || !sawPointee {
		t.Fatalf("generated NULL optval: %v, non-NULL: %v — want both", sawNull, sawPointee)
	}
}

func TestMutatePreservesValidity(t *testing.T) {
	tgt := testTarget(t)
	g := NewGen(tgt, 42)
	p := g.Generate(5)
	for i := 0; i < 500; i++ {
		p = mutateOnce(g, p, 8)
		if err := p.Validate(tgt); err != nil {
			t.Fatalf("mutation %d broke program: %v\n%s", i, err, p)
		}
	}
}

func TestMutateChangesPrograms(t *testing.T) {
	tgt := testTarget(t)
	g := NewGen(tgt, 11)
	p := g.Generate(5).Detach() // compared against every later candidate
	changed := 0
	for i := 0; i < 50; i++ {
		m := mutateOnce(g, p, 8)
		if m.Serialize() != p.Serialize() {
			changed++
		}
	}
	if changed < 40 {
		t.Fatalf("mutation too often a no-op: only %d/50 changed", changed)
	}
}

func TestCloneIndependence(t *testing.T) {
	tgt := testTarget(t)
	g := NewGen(tgt, 5)
	p := g.Generate(5).Detach() // must survive the mutations below
	c := p.Clone()
	before := p.String()
	for i := 0; i < 20; i++ {
		mutateOnce(g, c, 8) // a discarded candidate of c
		c = mutateOnce(g, c, 8)
	}
	if p.String() != before {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestConstWidening(t *testing.T) {
	f := syzlang.MustParse("ioctl$X(fd fd, cmd const[0xc138fd00])\n")
	tgt, err := Compile(f, syzlang.NewEnv(nil))
	if err != nil {
		t.Fatal(err)
	}
	ty := tgt.ByName["ioctl$X"].Args[1].Type
	if ty.Val != 0xc138fd00 {
		t.Fatalf("const value = %#x", ty.Val)
	}
}

func TestCompileErrors(t *testing.T) {
	f := syzlang.MustParse("ioctl$X(fd fd, cmd const[MISSING_MACRO])\n")
	if _, err := Compile(f, syzlang.NewEnv(nil)); err == nil {
		t.Fatal("expected compile error for unknown constant")
	}
}

func TestQuickGeneratedProgsEncodeAndValidate(t *testing.T) {
	tgt := testTarget(t)
	f := func(seed int64) bool {
		g := NewGen(tgt, seed)
		p := g.Generate(6)
		if p.Validate(tgt) != nil {
			return false
		}
		for _, c := range p.Calls {
			for _, a := range c.Args {
				if a.Type.Kind == KindPtr && a.Ptr != nil {
					a.Ptr.Encode() // must not panic
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMutationChainsStayValid(t *testing.T) {
	tgt := testTarget(t)
	f := func(seed int64) bool {
		g := NewGen(tgt, seed)
		p := g.Generate(4)
		for i := 0; i < 10; i++ {
			p = mutateOnce(g, p, 8)
		}
		return p.Validate(tgt) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSerializeFixedPoint covers what a seed's identity rests on.
// Deserialize is lenient (comments, blank lines, decimal numbers,
// optional result prefixes, any spelling of a bad fd) and Serialize is
// the canonical rendering the corpus store names files by and every
// dedupe keys on: whatever Deserialize accepts must re-render to a text
// that parses back and renders to itself.
func FuzzSerializeFixedPoint(f *testing.F) {
	tgt := plumbedTarget(f)
	g := NewGen(tgt, 29)
	for i := 0; i < 32; i++ {
		f.Add(g.Generate(2 + i%12).Serialize())
	}
	f.Add("# comment\n\n  openat$dm(4294967196, &\"/dev/mapper/control\", 2 , 0)\n")
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Deserialize(tgt, text)
		if err != nil {
			return
		}
		canon := p.Serialize()
		again, err := Deserialize(tgt, canon)
		if err != nil {
			t.Fatalf("canonical text does not parse: %v\ninput:\n%s\ncanonical:\n%s", err, text, canon)
		}
		if twice := again.Serialize(); twice != canon {
			t.Fatalf("Serialize is not a fixed point:\ninput:\n%s\nonce:\n%s\ntwice:\n%s", text, canon, twice)
		}
	})
}
