package prog

import (
	"bytes"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/syzlang"
)

var testCorpus = corpus.Build(corpus.TestConfig())

// corpusTarget compiles the oracle specs of the named bundled drivers,
// with the fd-plumbing/mmap surface merged in when plumbing is set.
func corpusTarget(tb testing.TB, plumbing bool, names ...string) *Target {
	tb.Helper()
	var files []*syzlang.File
	for _, n := range names {
		h := testCorpus.Handler(n)
		if h == nil {
			tb.Fatalf("no handler %q", n)
		}
		files = append(files, corpus.OracleSpec(h))
	}
	if plumbing {
		pf, err := testCorpus.PlumbingSpecFor(names...)
		if err != nil {
			tb.Fatal(err)
		}
		files = append(files, pf)
	}
	tgt, err := Compile(syzlang.MergeDedup(files...), testCorpus.Env())
	if err != nil {
		tb.Fatal(err)
	}
	return tgt
}

// deepTarget is dm+cec (few syscalls, large nested structs);
// plumbedTarget is the bundled drivers plus the plumbing surface.
func deepTarget(tb testing.TB) *Target { return corpusTarget(tb, false, "dm", "cec") }
func plumbedTarget(tb testing.TB) *Target {
	return corpusTarget(tb, true, "dm", "cec", "kvm", "kvm_vm", "kvm_vcpu")
}

// shapeSpec adds the value shapes the bundled drivers lack: opaque
// buffers (top-level and behind a pointer), arrays of structs, arrays
// of arrays, and a union whose options differ widely in size.
const shapeSpec = `
resource fd_shape[fd]

openat$shape(fd const[AT_FDCWD], file ptr[in, string["/dev/shape"]], flags const[O_RDWR], mode const[0]) fd_shape
ioctl$SHAPE(fd fd_shape, cmd const[1], arg ptr[in, shape_arg])
write$shape(fd fd_shape, buf buffer[in], n len[buf, int64])

shape_arg {
	tag	int8
	rows	array[shape_row, 3]
	nbytes	bytesize[grid, int16]
	u	shape_un
	grid	array[array[int16, 2]]
	raw	ptr[in, buffer[in]]
}

shape_row {
	a	int8
	b	int64
	cells	array[int32]
}

shape_un [
	small	int8
	wide	shape_row
]
`

func shapeTarget(t testing.TB) *Target {
	t.Helper()
	f, errs := syzlang.Parse(shapeSpec)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	env := syzlang.NewEnv(map[string]uint64{"AT_FDCWD": 0xffffff9c, "O_RDWR": 2})
	if verrs := syzlang.Validate(f, env); len(verrs) > 0 {
		t.Fatalf("validate: %v", verrs)
	}
	tgt, err := Compile(f, env)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestEncodedSizeMatchesEncode: the alloc-free size walk FixupLens
// relies on must agree with the encoder on every value shape —
// padded structs, unions padded to their widest option, nested
// arrays, NULL pointers — for generated and mutated values on the
// deep and plumbed targets and the hand-written test specs.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	kinds := map[TypeKind]int{}
	var values, nullPtrs, padded, padUnions, nested int
	check := func(v *Value) {
		values++
		kinds[v.Type.Kind]++
		if got, want := v.encodedSize(), len(v.Encode()); got != want {
			t.Fatalf("encodedSize(%v) = %d, len(Encode()) = %d\n%x", v.Type, got, want, v.Encode())
		}
		switch v.Type.Kind {
		case KindPtr:
			if v.Ptr == nil {
				nullPtrs++
			}
		case KindStruct:
			sum := 0
			for _, f := range v.Fields {
				sum += f.encodedSize()
			}
			if v.encodedSize() > sum {
				padded++
			}
		case KindUnion:
			if len(v.Fields) > 0 && v.encodedSize() > v.Fields[0].encodedSize() {
				padUnions++
			}
		case KindArray:
			if k := v.Type.Elem.Kind; len(v.Fields) > 0 && (k == KindStruct || k == KindArray || k == KindUnion) {
				nested++
			}
		}
	}
	for _, tgt := range []*Target{deepTarget(t), plumbedTarget(t), testTarget(t), resTarget(t), shapeTarget(t)} {
		g := NewGen(tgt, 3)
		ops := DefaultOperators()
		for i := 0; i < 150; i++ {
			p := g.Generate(8)
			if i%2 == 1 { // mutated shapes too: grown/shrunk arrays, re-rolled unions
				p, _ = g.MutateOp(p, ops[i%len(ops)], nil)
			}
			for _, c := range p.Calls {
				c.ForEachValue(check)
			}
		}
	}
	if values < 10000 {
		t.Fatalf("only %d values checked, want >= 10000", values)
	}
	for k := KindInt; k <= KindBuffer; k++ {
		if kinds[k] == 0 {
			t.Errorf("no value of kind %d checked", k)
		}
	}
	if nullPtrs == 0 || padded == 0 || padUnions == 0 || nested == 0 {
		t.Fatalf("shape coverage: %d NULL pointers, %d padded structs, %d padded unions, %d nested arrays — all must be > 0",
			nullPtrs, padded, padUnions, nested)
	}
	t.Logf("%d values; kinds %v", values, kinds)
}

// byteRunSpec holds arrays of every 1-byte scalar element kind, beside
// a 2-byte run.
const byteRunSpec = `
resource fd_b[fd]

openat$b(fd const[AT_FDCWD], file ptr[in, string["/dev/b"]], flags const[O_RDWR], mode const[0]) fd_b
ioctl$B(fd fd_b, cmd const[1], arg ptr[in, byte_runs])

byte_flags = 1, 2, 128, 255, 256

byte_runs {
	ints	array[int8]
	fixed	array[int8, 5]
	ranged	array[int8[3:9]]
	consts	array[const[0xab, int8]]
	flags	array[flags[byte_flags, int8]]
	n	len[wide, int8]
	wide	array[int16]
}
`

// TestByteRunEncodeMatchesElements: an array of 1-byte int, const or
// flags elements — a run of ints through encodeRun — encodes to exactly
// what encoding its elements one by one gives: the low byte of each
// Scalar, whatever the element holds (a mutated int8 may hold 0x1ff).
func TestByteRunEncodeMatchesElements(t *testing.T) {
	f, errs := syzlang.Parse(byteRunSpec)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	env := syzlang.NewEnv(map[string]uint64{"AT_FDCWD": 0xffffff9c, "O_RDWR": 2})
	if verrs := syzlang.Validate(f, env); len(verrs) > 0 {
		t.Fatalf("validate: %v", verrs)
	}
	tgt, err := Compile(f, env)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[TypeKind]int{}
	g := NewGen(tgt, 11)
	for i := 0; i < 300; i++ {
		p := g.Generate(4)
		if i%2 == 1 {
			p, _ = g.MutateOp(p, OpConstants{}, nil)
		}
		for _, c := range p.Calls {
			c.ForEachValue(func(v *Value) {
				if v.Type.Kind != KindArray || v.elems() == 0 {
					return
				}
				var want []byte
				for _, e := range elementNodes(v) {
					want = e.encodeTo(want)
				}
				if got := v.Encode(); !bytes.Equal(got, want) {
					t.Fatalf("array of %v encodes to %x, its elements to %x", v.Type.Elem, got, want)
				}
				if v.Type.Elem.Bytes == 1 {
					runs[v.Type.Elem.Kind]++
				}
			})
		}
	}
	for _, k := range []TypeKind{KindInt, KindConst, KindFlags} {
		if runs[k] == 0 {
			t.Errorf("no non-empty byte run of kind %d encoded", k)
		}
	}
}

// TestDetachOwnership pins the ownership rule: a heap-owned program
// detaches to itself (the seed pool identifies seeds by pointer), a
// scratch candidate detaches to an equal heap copy that survives the
// Gen moving on.
func TestDetachOwnership(t *testing.T) {
	g := NewGen(deepTarget(t), 4)
	s := g.Generate(6)
	text := s.Serialize()
	d := s.Detach()
	if d == s {
		t.Fatal("Detach of a scratch candidate returned the scratch itself")
	}
	if d.Detach() != d {
		t.Fatal("Detach of a heap program must be pointer-identical")
	}
	if c := d.Clone(); c.Detach() != c {
		t.Fatal("Clone must return a heap-owned program")
	}
	if h := (&Prog{}); h.Detach() != h {
		t.Fatal("a hand-built program is heap-owned")
	}
	rt, err := Deserialize(g.T, text)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Detach() != rt {
		t.Fatal("a deserialized program is heap-owned")
	}
	ops := DefaultOperators()
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			g.Generate(8)
		} else {
			g.MutateOp(d, ops[i%len(ops)], nil)
		}
	}
	if got := d.Serialize(); got != text {
		t.Fatalf("detached program changed while the Gen moved on:\n%s\nvs\n%s", got, text)
	}
}

// TestMutateOwnScratchMatchesDetached: handing a Gen its own scratch
// result as the next seed must behave exactly like handing it a
// detached copy — same candidates, same RNG consumption — for every
// operator, including splice with a donor and a drawn operator with
// none.
func TestMutateOwnScratchMatchesDetached(t *testing.T) {
	tgt := plumbedTarget(t)
	g1, g2 := NewGen(tgt, 8), NewGen(tgt, 8)
	mk := func(g *Gen) (*Prog, *MutateCtx) {
		donor := g.Generate(6).Detach()
		return g.Generate(6), &MutateCtx{MaxCalls: 8, Donor: func() *Prog { return donor }}
	}
	s1, ctx1 := mk(g1)
	s2, ctx2 := mk(g2)
	s2 = s2.Detach()
	ops := DefaultOperators()
	for i := 0; i < 400; i++ {
		if i%10 == 9 {
			s1 = mutateOnce(g1, s1, 8)
			s2 = mutateOnce(g2, s2, 8).Detach()
		} else {
			op := ops[i%len(ops)]
			var a1, a2 Operator
			s1, a1 = g1.MutateOp(s1, op, ctx1) // s1 stays g1's scratch
			s2, a2 = g2.MutateOp(s2, op, ctx2)
			s2 = s2.Detach()
			if (a1 == nil) != (a2 == nil) || (a1 != nil && a1.Name() != a2.Name()) {
				t.Fatalf("step %d: applied operators differ", i)
			}
		}
		if t1, t2 := s1.Serialize(), s2.Serialize(); t1 != t2 {
			t.Fatalf("step %d: scratch-seeded and detached-seeded candidates differ:\n%s\nvs\n%s", i, t1, t2)
		}
		if err := s1.Validate(tgt); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if a, b := g1.R.Int63(), g2.R.Int63(); a != b {
		t.Fatal("RNG streams diverged")
	}
}

// TestConsumersCreatorsMemoMatchesWalk: the lists memoised at Compile
// must equal, element for element, what the per-call walk used to
// build — their order feeds Gen.chooseCall's draw.
func TestConsumersCreatorsMemoMatchesWalk(t *testing.T) {
	for _, tgt := range []*Target{plumbedTarget(t), testTarget(t)} {
		names := map[string]bool{"": true, "no_such_resource": true}
		for name := range tgt.Resources {
			names[name] = true
		}
		for _, sc := range tgt.Syscalls {
			names[sc.Ret] = true
			for _, a := range sc.Args {
				if a.Type.Kind == KindResource {
					names[a.Type.Res] = true
				}
			}
		}
		for res := range names {
			var consumers, creators []*Syscall
			seen := map[int]bool{}
			for cur := res; cur != ""; {
				for _, sc := range tgt.Syscalls {
					takes := false
					for _, a := range sc.Args {
						takes = takes || (a.Type.Kind == KindResource && a.Type.Res == cur)
					}
					if takes && !seen[sc.ID] {
						seen[sc.ID] = true
						consumers = append(consumers, sc)
					}
				}
				r := tgt.Resources[cur]
				if r == nil {
					break
				}
				cur = r.Base
			}
			for _, sc := range tgt.Syscalls {
				if sc.Ret != "" && tgt.compatible(sc.Ret, res) {
					creators = append(creators, sc)
				}
			}
			if !sameSyscalls(tgt.Consumers(res), consumers) {
				t.Fatalf("Consumers(%q) = %v, walk gives %v", res, tgt.Consumers(res), consumers)
			}
			if !sameSyscalls(tgt.Creators(res), creators) {
				t.Fatalf("Creators(%q) = %v, walk gives %v", res, tgt.Creators(res), creators)
			}
		}
	}
}

func sameSyscalls(a, b []*Syscall) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
