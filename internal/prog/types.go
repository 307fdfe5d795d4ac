// Package prog is the executable-program layer of the fuzzer: it
// compiles validated syzlang descriptions into typed syscall
// descriptors, generates and mutates syscall programs with resource
// tracking, and encodes pointer payloads into raw bytes using C
// layout rules. The byte encoding is what makes specification quality
// matter in this reproduction: the virtual kernel decodes payload
// fields at its ground-truth offsets, so a generator with the wrong
// struct layout feeds the kernel garbage field values and almost
// never satisfies deep-path conditions.
//
// One ownership rule covers every program: seed parts are read-only,
// scratch parts are yours. A heap-owned program (Clone, Detach,
// Deserialize, a literal) belongs to whoever holds it until it is
// frozen (Prog.Freeze — the seed pool does it on admission); from then
// on its calls and every value under them are read-only for everyone.
// A Gen builds each candidate in its scratch arena: frozen calls of the
// seed and of a splice donor go in by pointer, and an operator copies
// into the arena exactly what it is about to write — the call's shell,
// then the spine from an argument down to the value — so a mutation
// costs what it changes, not what the seed weighs. FixupLens and
// CompileExecInto follow the same line: only owned calls are fixed up
// and encoded, a frozen call's payload bytes are copied from the cache
// Freeze built. Whoever keeps a candidate detaches it: a heap copy of
// the calls the candidate owns that keeps its frozen ones by pointer.
//
// An array of ints is a run: one Value whose Data packs every element's
// Scalar in 8 little-endian bytes, with no node per element (dm_ioctl's
// name and uuid are 257 int8s). An element is owned by owning its run;
// mutation sites and OpConstants' candidates list it as (run, index),
// in the order the per-element nodes were walked, and ForEachValue does
// not visit it.
//
// One random stream feeds a Gen and whoever drives it. NewGen(t, seed)
// builds a source that continues rand.NewSource(seed)'s stream exactly;
// generation takes its per-value draws from that source directly, with
// the constant-bound Intn draws folded to a mask or a multiply and an
// int's case taken through a table instead of a switch, and
// Gen.R is a rand.Rand over the same source, through which the Gen's
// other draws and its callers' (fuzz's seed and operator picks,
// seedpool.PickRef, Scheduler.Pick) advance the same state. So every
// candidate is what math/rand would have drawn, and a campaign replays
// from its seed.
package prog

import "fmt"

// TypeKind enumerates compiled type categories.
type TypeKind int

// Compiled type kinds.
const (
	KindInt TypeKind = iota
	KindConst
	KindFlags
	KindPtr
	KindArray
	KindString
	KindLen      // len/bytesize of a sibling field
	KindResource // resource use (fd etc.)
	KindStruct
	KindUnion
	KindBuffer // opaque byte buffer with direction
)

// Dir is pointer/buffer direction.
type Dir int

// Directions.
const (
	DirIn Dir = iota
	DirOut
	DirInOut
)

// Type is a compiled type descriptor. Exactly the fields relevant to
// Kind are set.
type Type struct {
	Kind TypeKind
	// Bytes is the scalar width for Int/Const/Flags/Len (1,2,4,8).
	Bytes int
	// Val is the constant value for Const.
	Val uint64
	// Vals are the allowed values for Flags.
	Vals []uint64
	// Min/Max bound Int when Ranged.
	Ranged   bool
	Min, Max int64
	// Dir applies to Ptr and Buffer.
	Dir Dir
	// Elem is the pointee (Ptr) or element (Array) type.
	Elem *Type
	// FixedLen is the array length; -1 means variable.
	FixedLen int
	// Str is the literal for String (empty = arbitrary).
	Str string
	// LenTarget is the sibling field name for Len; InBytes selects
	// byte semantics (bytesize / non-array targets).
	LenTarget string
	InBytes   bool
	// Res is the resource name for Resource.
	Res string
	// StructName and Fields describe Struct/Union.
	StructName string
	Fields     []Field
	// Out marks kernel-written struct fields.
	Out bool
	// holds is set by Compile to the kinds a value of this type can hold:
	// its own, and those of whatever it points at or has among its
	// elements, members or union options (a recursive struct is assumed
	// to hold every kind). A walk that looks for some kinds — len fields
	// (FixupLens), resources (rebinding), scalars or arrays (mutation
	// sites) — skips a subtree that holds none of them. A Type built by
	// hand holds nothing, so such walks do not enter it.
	holds kindSet
}

// kindSet is a set of TypeKinds, bit k standing for kind k.
type kindSet uint16

// allKinds is what a recursive type is assumed to hold.
const allKinds kindSet = 1<<(KindBuffer+1) - 1

// set returns the set holding just k.
func (k TypeKind) set() kindSet { return 1 << k }

// has reports whether k is in s.
func (s kindSet) has(k TypeKind) bool { return s&k.set() != 0 }

// Field is a named member of a struct, union, or argument list.
type Field struct {
	Name string
	Type *Type
}

// Syscall is a compiled syscall descriptor.
type Syscall struct {
	// Name is the full name (callname$variant); CallName the base.
	Name     string
	CallName string
	Args     []Field
	// Ret is the resource the call creates ("" if none).
	Ret string
	// ID is the index in Target.Syscalls.
	ID int
}

// ResourceDesc describes a resource kind.
type ResourceDesc struct {
	Name string
	// Base is the parent resource or builtin type name.
	Base string
}

// Target is the compiled description set a fuzzer runs against (the
// analogue of Syzkaller's prog.Target).
type Target struct {
	Syscalls  []*Syscall
	ByName    map[string]*Syscall
	Resources map[string]*ResourceDesc
	// creators maps resource name → the syscalls producing it or a
	// resource derived from it, in syscall order.
	creators map[string][]*Syscall
	// consumers maps resource name → the memoised Consumers result,
	// built once by Compile (the Target is immutable afterwards).
	consumers map[string][]*Syscall
}

// Consumers returns the syscalls that can consume a value of the
// given resource kind: direct consumers, then consumers of each
// ancestor resource the value is compatible with, each syscall once.
// The slice is shared — callers must not modify it.
func (t *Target) Consumers(res string) []*Syscall { return t.consumers[res] }

// Creators returns the syscalls whose return value satisfies the
// given resource (the resource itself or any derived resource). The
// slice is shared — callers must not modify it.
func (t *Target) Creators(res string) []*Syscall { return t.creators[res] }

// memoConsumers fills t.consumers from the per-resource direct
// consumer IDs Compile collected. A resource's list is its own direct
// consumers followed by each ancestor's, first occurrence winning —
// the order Gen.chooseCall's draw indexes, so it is part of the RNG
// stream contract.
func (t *Target) memoConsumers(direct map[string][]int) {
	t.consumers = make(map[string][]*Syscall, len(direct)+len(t.Resources))
	seen := make([]int, len(t.Syscalls)) // seen[id] == epoch: already listed
	epoch := 0
	memo := func(res string) {
		if _, done := t.consumers[res]; done {
			return
		}
		// chain visits res and its ancestors; the first pass sizes the
		// list so the second fills it without regrowing.
		chain := func(visit func(ids []int)) {
			for cur := res; cur != ""; {
				visit(direct[cur])
				r := t.Resources[cur]
				if r == nil {
					break
				}
				cur = r.Base
			}
		}
		n := 0
		chain(func(ids []int) { n += len(ids) })
		if n == 0 {
			return // no entry: Consumers returns nil
		}
		epoch++
		out := make([]*Syscall, 0, n)
		chain(func(ids []int) {
			for _, id := range ids {
				if seen[id] != epoch {
					seen[id] = epoch
					out = append(out, t.Syscalls[id])
				}
			}
		})
		t.consumers[res] = out
	}
	for res := range direct {
		memo(res)
	}
	for res := range t.Resources {
		memo(res)
	}
}

// compatible reports whether a value of resource kind "have" can be
// used where "want" is expected (have == want or have derives from
// want through base links).
func (t *Target) compatible(have, want string) bool {
	for cur := have; cur != ""; {
		if cur == want {
			return true
		}
		r := t.Resources[cur]
		if r == nil {
			return false
		}
		cur = r.Base
	}
	return false
}

// Size returns the encoded byte size of a value of this type; for
// variable arrays it needs the instance value, so this returns the
// minimum size (elements 0).
func (ty *Type) Size() int {
	switch ty.Kind {
	case KindInt, KindConst, KindFlags, KindLen:
		if ty.Bytes == 0 {
			return 4
		}
		return ty.Bytes
	case KindPtr, KindResource:
		return 8
	case KindString:
		return len(ty.Str) + 1
	case KindArray:
		if ty.FixedLen > 0 {
			return ty.FixedLen * ty.Elem.Size()
		}
		return 0
	case KindStruct:
		size := 0
		for _, f := range ty.Fields {
			size = alignUp(size, f.Type.align()) + f.Type.Size()
		}
		return alignUp(size, ty.align())
	case KindUnion:
		max := 0
		for _, f := range ty.Fields {
			if s := f.Type.Size(); s > max {
				max = s
			}
		}
		return max
	case KindBuffer:
		return 0
	}
	return 0
}

// align returns the natural alignment of the type under C rules.
func (ty *Type) align() int {
	switch ty.Kind {
	case KindInt, KindConst, KindFlags, KindLen:
		if ty.Bytes == 0 {
			return 4
		}
		return ty.Bytes
	case KindPtr, KindResource:
		return 8
	case KindString, KindBuffer:
		return 1
	case KindArray:
		return ty.Elem.align()
	case KindStruct, KindUnion:
		a := 1
		for _, f := range ty.Fields {
			if fa := f.Type.align(); fa > a {
				a = fa
			}
		}
		return a
	}
	return 1
}

// String renders a compact type description for diagnostics.
func (ty *Type) String() string {
	switch ty.Kind {
	case KindInt:
		return fmt.Sprintf("int%d", ty.Bytes*8)
	case KindConst:
		return fmt.Sprintf("const[%d]", ty.Val)
	case KindFlags:
		return fmt.Sprintf("flags[%d vals]", len(ty.Vals))
	case KindPtr:
		return fmt.Sprintf("ptr[%v]", ty.Elem)
	case KindArray:
		return fmt.Sprintf("array[%v]", ty.Elem)
	case KindString:
		return fmt.Sprintf("string[%q]", ty.Str)
	case KindLen:
		return fmt.Sprintf("len[%s]", ty.LenTarget)
	case KindResource:
		return fmt.Sprintf("res[%s]", ty.Res)
	case KindStruct:
		return "struct " + ty.StructName
	case KindUnion:
		return "union " + ty.StructName
	case KindBuffer:
		return "buffer"
	}
	return "?"
}
