package prog

import (
	"bytes"
	"testing"
)

// compileExec lowers p into a fresh ExecProg.
func compileExec(p *Prog) *ExecProg {
	ep := &ExecProg{}
	CompileExecInto(p, ep)
	return ep
}

// execTestProg hand-builds a program exercising every lowering case:
// scalar args, bound and unbound resources, encoded pointer payloads,
// and a device-path string.
func execTestProg() *Prog {
	intT := &Type{Kind: KindInt, Bytes: 8}
	int4T := &Type{Kind: KindInt, Bytes: 4}
	resT := &Type{Kind: KindResource}
	strT := &Type{Kind: KindString}
	ptrT := &Type{Kind: KindPtr}
	structT := &Type{Kind: KindStruct}
	payload := &Value{Type: structT, Fields: []*Value{
		{Type: int4T, Scalar: 0x11223344},
		{Type: intT, Scalar: 0xdeadbeefcafef00d},
	}}
	return &Prog{Calls: []*Call{
		{Sc: &Syscall{Name: "openat$dm", CallName: "openat"}, Args: []*Value{
			{Type: intT, Scalar: 0xffffffffffffff9c},
			{Type: ptrT, Ptr: &Value{Type: strT, Data: []byte("/dev/mapper/control")}},
			{Type: intT, Scalar: 2},
		}},
		{Sc: &Syscall{Name: "ioctl$DM_X", CallName: "ioctl"}, Args: []*Value{
			{Type: resT, ResultOf: 0},
			{Type: intT, Scalar: 0xc138fd00},
			{Type: ptrT, Ptr: payload},
		}},
		{Sc: &Syscall{Name: "close", CallName: "close"}, Args: []*Value{
			{Type: resT, ResultOf: -1},
		}},
	}}
}

func TestCompileExecLowering(t *testing.T) {
	p := execTestProg()
	ep := compileExec(p)
	if len(ep.Calls) != len(p.Calls) {
		t.Fatalf("call count: got %d want %d", len(ep.Calls), len(p.Calls))
	}
	open := ep.Calls[0]
	if open.Sc != p.Calls[0].Sc {
		t.Fatal("syscall descriptor not preserved")
	}
	if got := open.Args[0].Scalar; got != 0xffffffffffffff9c {
		t.Fatalf("scalar arg: got %#x", got)
	}
	if open.Args[0].Res != -1 || open.Args[2].Res != -1 {
		t.Fatal("non-resource args must lower to Res=-1")
	}
	if string(open.Path) != "/dev/mapper/control" {
		t.Fatalf("path: got %q", open.Path)
	}
	if want := p.Calls[0].Args[1].Ptr.Encode(); !bytes.Equal(open.Args[1].Blob, want) {
		t.Fatalf("path blob: got %x want %x", open.Args[1].Blob, want)
	}
	ioctl := ep.Calls[1]
	if ioctl.Args[0].Res != 0 {
		t.Fatalf("resource binding: got %d want 0", ioctl.Args[0].Res)
	}
	if ioctl.Path != nil {
		t.Fatal("ioctl carries no string pointee, Path must be nil")
	}
	if want := p.Calls[1].Args[2].Ptr.Encode(); !bytes.Equal(ioctl.Args[2].Blob, want) {
		t.Fatalf("payload blob: got %x want %x", ioctl.Args[2].Blob, want)
	}
	if ep.Calls[2].Args[0].Res != -1 {
		t.Fatal("unbound resource must lower to Res=-1")
	}

	// The oracle sweep: the generator's whole output space, then the
	// shapes it rarely or never emits.
	checkLowering(t, p)
	g := NewGen(plumbedTarget(t), 3)
	for i := 0; i < 2000; i++ {
		checkLowering(t, g.Generate(2+i%12))
	}
	intT := &Type{Kind: KindInt, Bytes: 8}
	resT := &Type{Kind: KindResource}
	ptrT := &Type{Kind: KindPtr}
	strPtr := func(s string) *Value {
		return &Value{Type: ptrT, Ptr: &Value{Type: &Type{Kind: KindString}, Data: []byte(s)}}
	}
	edges := &Prog{Calls: []*Call{
		// Empty first string pointer: the device path is the second.
		{Sc: &Syscall{Name: "openat$x", CallName: "openat"}, Args: []*Value{
			{Type: intT, Scalar: 1}, strPtr(""), strPtr("/dev/x"), nil,
		}},
		{Sc: &Syscall{Name: "ioctl$x", CallName: "ioctl"}, Args: []*Value{
			{Type: resT, ResultOf: -1}, {Type: resT, ResultOf: 99}, {Type: ptrT},
			{Type: ptrT, Ptr: &Value{Type: &Type{Kind: KindBuffer}}},
		}},
		{Sc: &Syscall{Name: "socket$x", CallName: "socket"}},
	}}
	checkLowering(t, edges)
	if ec := compileExec(edges).Calls; string(ec[0].Path) != "/dev/x" || ec[1].Args[1].Res != 99 || len(ec[2].Args) != 0 {
		t.Fatalf("edge lowering: path %q, out-of-range res %d, socket args %d", ec[0].Path, ec[1].Args[1].Res, len(ec[2].Args))
	}
}

// checkLowering compares CompileExec field by field against a direct
// reading of the Value tree — what an executor walking the program
// itself would see for each argument.
func checkLowering(t *testing.T, p *Prog) {
	t.Helper()
	ep := compileExec(p)
	if len(ep.Calls) != len(p.Calls) {
		t.Fatalf("call count: got %d want %d", len(ep.Calls), len(p.Calls))
	}
	for i, c := range p.Calls {
		ec := ep.Calls[i]
		if ec.Sc != c.Sc || len(ec.Args) != len(c.Args) {
			t.Fatalf("call %d: descriptor or arity not preserved:\n%s", i, p.String())
		}
		var path []byte
		for j, v := range c.Args {
			var scalar uint64
			var blob []byte
			res := -1
			if v != nil {
				scalar = v.Scalar
				if v.Type.Kind == KindResource {
					res = v.ResultOf
				}
				if v.Type.Kind == KindPtr && v.Ptr != nil {
					blob = v.Ptr.Encode()
					if k := v.Ptr.Type.Kind; path == nil && len(v.Ptr.Data) > 0 && (k == KindString || k == KindBuffer) {
						path = v.Ptr.Data
					}
				}
			}
			if ea := ec.Args[j]; ea.Scalar != scalar || int(ea.Res) != res || !bytes.Equal(ea.Blob, blob) {
				t.Fatalf("call %d arg %d: lowered {%#x r%d %x}, tree says {%#x r%d %x}:\n%s",
					i, j, ea.Scalar, ea.Res, ea.Blob, scalar, res, blob, p.String())
			}
		}
		if (ec.Path != nil) != (path != nil) || !bytes.Equal(ec.Path, path) {
			t.Fatalf("call %d: lowered path %q, tree says %q:\n%s", i, ec.Path, path, p.String())
		}
	}
}

func TestCompileExecIntoReusesArenas(t *testing.T) {
	p := execTestProg()
	var ep ExecProg
	CompileExecInto(p, &ep)
	g1 := ep.Gen()
	ep.SetCache("resolved")
	// Capture arena capacities, then recompile: the second compilation
	// must not grow them and must bump the generation (so executors
	// invalidate the cache themselves).
	callCap, argCap, blobCap := cap(ep.Calls), cap(ep.args), cap(ep.blob)
	first := compileExec(p)
	CompileExecInto(p, &ep)
	if ep.Gen() <= g1 {
		t.Fatalf("generation must advance: %d -> %d", g1, ep.Gen())
	}
	if ep.Cache() != "resolved" {
		t.Fatal("cache slot is executor-owned and must survive recompilation")
	}
	if cap(ep.Calls) != callCap || cap(ep.args) != argCap || cap(ep.blob) != blobCap {
		t.Fatal("recompiling the same program must reuse the arenas")
	}
	// And the recompiled contents must match a fresh compilation.
	for i := range first.Calls {
		a, b := first.Calls[i], ep.Calls[i]
		if !bytes.Equal(a.Path, b.Path) || len(a.Args) != len(b.Args) {
			t.Fatalf("call %d diverged after recompilation", i)
		}
		for j := range a.Args {
			if a.Args[j].Scalar != b.Args[j].Scalar || a.Args[j].Res != b.Args[j].Res ||
				!bytes.Equal(a.Args[j].Blob, b.Args[j].Blob) {
				t.Fatalf("call %d arg %d diverged after recompilation", i, j)
			}
		}
	}
}

func TestCompileExecNilAndEmpty(t *testing.T) {
	ep := compileExec(&Prog{})
	if len(ep.Calls) != 0 {
		t.Fatal("empty program must compile to no instructions")
	}
	// Nil argument slots (absent optional args) lower to inert args.
	p := &Prog{Calls: []*Call{{
		Sc:   &Syscall{Name: "close", CallName: "close"},
		Args: []*Value{nil},
	}}}
	ep = compileExec(p)
	a := ep.Calls[0].Args[0]
	if a.Scalar != 0 || a.Res != -1 || a.Blob != nil {
		t.Fatalf("nil arg must lower to zero/none: %+v", a)
	}
}
