package prog

import (
	"encoding/binary"
	"slices"
)

// Value is a concrete argument value for a compiled type.
//
// An array whose element type is KindInt is a run: its elements are not
// Values but 8 little-endian bytes each in the array's own Data (each
// element's full Scalar), and Fields is nil. RunLen, RunElem, SetRunElem
// and TruncateRun read and edit them. An element has no node of its
// own, so it is owned, shared and copied with its run.
type Value struct {
	Type *Type
	// Scalar holds Int/Const/Flags/Len values.
	Scalar uint64
	// Data holds String/Buffer bytes, or a run's elements.
	Data []byte
	// Fields holds struct members or the elements of an array that is
	// not a run.
	Fields []*Value
	// UnionIdx selects the active union option (index into
	// Type.Fields); Fields then has exactly one element.
	UnionIdx int
	// Ptr is the pointee for KindPtr (nil encodes NULL).
	Ptr *Value
	// ResultOf is the index of the earlier call whose return value
	// this resource argument uses; -1 means no binding (an invalid
	// fd is passed).
	ResultOf int
}

// Call is one syscall invocation in a program. A call is either owned
// by whoever holds the program, or frozen: read-only, along with every
// value under it, and shared by pointer between the seed that holds it
// and the scratch candidates mutated from that seed (see Prog.Freeze).
type Call struct {
	Sc   *Syscall
	Args []*Value
	// lowered is non-nil exactly on a frozen call and caches what
	// CompileExecInto needs of it: per non-NULL pointer argument, in
	// argument order, a 4-byte little-endian length and then exactly the
	// bytes Ptr.encodeTo appends.
	lowered []byte
}

// Prog is a sequence of calls (the fuzzer's unit of execution). It is
// heap-owned — its holder's to edit until Freeze, read-only after — or
// a Gen's scratch candidate, which may share frozen calls with the seed
// it was mutated from (see the package comment).
type Prog struct {
	Calls []*Call
	// scratch marks a program that lives in a Gen's reusable arena:
	// it is valid only until that Gen's next Generate/Mutate/MutateOp.
	scratch bool
}

// Clone deep-copies the program into one freshly allocated arena
// (the same allocator a Gen builds candidates in, sized here to fit
// exactly). The result is heap-owned and shares nothing with p, frozen
// calls included: ordinary addressable values the caller may keep and
// mutate freely. It is the way to get a mutable copy of anything that
// holds frozen calls.
func (p *Prog) Clone() *Prog {
	a := new(arena)
	a.reserve(p, false)
	return a.cloneProg(p, false)
}

// Detach returns a program the caller may keep: p itself when it is
// heap-owned; when it is a Gen's scratch candidate, a heap copy that
// keeps the frozen calls the candidate shares with its seed or donor by
// pointer (they are read-only for good) and deep-copies, into one arena
// sized to them, only the calls the candidate owns. The copy's owned
// calls are the caller's until it freezes them; a copy it may edit
// whole is Clone's. Whoever retains a candidate past the Gen's next
// Generate/Mutate/MutateOp detaches it first (the seed pool does so on
// admission, then freezes the copy, which encodes only the owned
// calls).
func (p *Prog) Detach() *Prog {
	if !p.scratch {
		return p
	}
	a := new(arena)
	a.reserve(p, true)
	return a.cloneProg(p, true)
}

// Freeze makes a heap-owned program's calls read-only, so that mutation
// may share them instead of copying them: Gen.Mutate/MutateOp put a
// frozen call into the candidate by pointer and copy only what an
// operator writes, and CompileExecInto copies a frozen call's cached
// pointer payloads instead of re-encoding them. The cache is one
// allocation per program, sized to the calls not frozen yet: a call p
// shares with another frozen program (a Detach of a candidate holds its
// seed's) keeps the cache it has. Nothing may write to a frozen call or
// to any value under it afterwards; Clone gives a mutable copy.
//
// The seed pool freezes what it admits and fuzz freezes a loaded store
// snapshot before handing it to its units. Freeze itself is not safe
// for concurrent use on one program; once it has returned, any number
// of goroutines may read, mutate from and lower the program, and
// freezing it again is a read-only no-op. A call whose len fields are
// not what FixupLens would make them stays unfrozen and keeps being
// deep-copied (mutation fixes its lens in the copy), as do all calls of
// a scratch program.
func (p *Prog) Freeze() {
	if p.scratch {
		return
	}
	size, stale := 0, false
	for _, c := range p.Calls {
		switch {
		case c.lowered != nil:
		case c.fixLens(false):
			stale = true
		default:
			size += c.loweredSize()
		}
	}
	buf := make([]byte, 0, size)
	for _, c := range p.Calls {
		if c.lowered != nil || stale && c.fixLens(false) {
			continue
		}
		start := len(buf)
		for _, a := range c.Args {
			if a != nil && a.Type.Kind == KindPtr && a.Ptr != nil {
				at := len(buf)
				buf = a.Ptr.encodeTo(append(buf, 0, 0, 0, 0))
				binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
			}
		}
		c.lowered = buf[start:len(buf):len(buf)]
	}
}

// loweredSize is the size of the payload cache Freeze builds for c.
func (c *Call) loweredSize() int {
	size := 0
	for _, a := range c.Args {
		if a != nil && a.Type.Kind == KindPtr && a.Ptr != nil {
			size += 4 + a.Ptr.encodedSize()
		}
	}
	return size
}

// String returns the program's canonical repro text, Serialize's
// output, so that printing a program with %s or %v shows all of it.
func (p *Prog) String() string { return p.Serialize() }

// isRun reports whether a value of ty is a run (see Value).
func (ty *Type) isRun() bool {
	return ty.Kind == KindArray && ty.Elem != nil && ty.Elem.Kind == KindInt
}

// RunLen is the element count of the run v.
func (v *Value) RunLen() int { return len(v.Data) / 8 }

// RunElem is element i of the run v.
func (v *Value) RunElem(i int) uint64 { return binary.LittleEndian.Uint64(v.Data[8*i:]) }

// SetRunElem sets element i of the run v to x.
func (v *Value) SetRunElem(i int, x uint64) { binary.LittleEndian.PutUint64(v.Data[8*i:], x) }

// TruncateRun keeps the first n elements of the run v.
func (v *Value) TruncateRun(n int) { v.Data = v.Data[:8*n] }

// elems is the element count of the array v.
func (v *Value) elems() int {
	if v.Type.isRun() {
		return v.RunLen()
	}
	return len(v.Fields)
}

// FixupLens computes every KindLen field from its sibling target:
// element count for arrays, byte size otherwise. It must run after
// any structural mutation and before encoding. Only a len field whose
// value changes is written, so a call that shares subtrees with a
// frozen seed may be fixed up as long as it owns every len a mutation
// can have moved (see Gen.own and arena.pathCopy).
func (c *Call) FixupLens() { c.fixLens(true) }

// fixLens is FixupLens when write is set; otherwise it writes nothing
// and reports whether FixupLens would.
func (c *Call) fixLens(write bool) (stale bool) {
	if fixLenGroup(c.Sc.Args, c.Args, write) {
		return true
	}
	for _, a := range c.Args {
		if a.fixupLensRec(write) {
			return true
		}
	}
	return false
}

// fixupLensRec fixes the len fields under v; a subtree that cannot hold
// one is not entered.
func (v *Value) fixupLensRec(write bool) (stale bool) {
	if v == nil || !v.Type.holds.has(KindLen) {
		return false
	}
	switch v.Type.Kind {
	case KindPtr:
		return v.Ptr.fixupLensRec(write)
	case KindStruct:
		if fixLenGroup(v.Type.Fields, v.Fields, write) {
			return true
		}
		fallthrough
	case KindUnion, KindArray:
		for _, f := range v.Fields {
			if f.fixupLensRec(write) {
				return true
			}
		}
	}
	return false
}

// fixLenGroup resolves the len fields among one argument list or one
// struct instance.
func fixLenGroup(fields []Field, vals []*Value, write bool) (stale bool) {
	for i, f := range fields {
		if f.Type.Kind != KindLen || i >= len(vals) {
			continue
		}
		for j, g := range fields {
			if g.Name != f.Type.LenTarget || j >= len(vals) {
				continue
			}
			if n := measure(vals[j], f.Type.InBytes); vals[i].Scalar != n {
				if !write {
					return true
				}
				vals[i].Scalar = n
			}
		}
	}
	return false
}

// measure computes the len semantics for a target value: element
// count for arrays, byte size for everything else (and always bytes
// for bytesize). Pointers measure their pointee.
func measure(v *Value, inBytes bool) uint64 {
	if v == nil {
		return 0
	}
	switch v.Type.Kind {
	case KindPtr:
		return measure(v.Ptr, inBytes)
	case KindArray:
		if inBytes {
			return uint64(v.encodedSize())
		}
		return uint64(v.elems())
	case KindString, KindBuffer:
		return uint64(len(v.Data))
	default:
		return uint64(v.encodedSize())
	}
}

// encodedSize is len(v.Encode()) computed without encoding: the same
// walk as encodeTo with the same alignment, padding and union-size
// rules, counting bytes instead of appending them.
func (v *Value) encodedSize() int {
	if v == nil {
		return 0
	}
	switch v.Type.Kind {
	case KindInt, KindConst, KindFlags, KindLen, KindResource:
		if v.Type.Bytes == 0 {
			return 4
		}
		return v.Type.Bytes
	case KindString:
		return len(v.Data) + 1
	case KindBuffer:
		return len(v.Data)
	case KindPtr:
		return 8
	case KindArray:
		if v.Type.isRun() {
			return v.RunLen() * v.Type.Elem.Size()
		}
		size := 0
		for _, f := range v.Fields {
			size += f.encodedSize()
		}
		return size
	case KindStruct:
		size := 0
		for i, f := range v.Fields {
			var ft *Type
			if i < len(v.Type.Fields) {
				ft = v.Type.Fields[i].Type
			} else {
				ft = f.Type
			}
			size = alignUp(size, ft.align()) + f.encodedSize()
		}
		return alignUp(size, v.Type.align())
	case KindUnion:
		size := 0
		if len(v.Fields) > 0 {
			size = v.Fields[0].encodedSize()
		}
		if want := v.Type.Size(); size < want {
			size = want
		}
		return size
	}
	return 0
}

// alignUp rounds n up to a multiple of a.
func alignUp(n, a int) int {
	if rem := n % a; rem != 0 {
		n += a - rem
	}
	return n
}

// Encode serializes the value to raw bytes under C layout rules
// (little-endian scalars, natural alignment, NUL-terminated strings).
// Pointers nested inside payloads encode as zero (the virtual kernel
// does not chase nested user pointers).
func (v *Value) Encode() []byte {
	var buf []byte
	return v.encodeTo(buf)
}

func (v *Value) encodeTo(buf []byte) []byte {
	if v == nil {
		return buf
	}
	switch v.Type.Kind {
	case KindInt, KindConst, KindFlags, KindLen, KindResource:
		n := v.Type.Bytes
		if n == 0 {
			n = 4
		}
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], v.Scalar)
		return append(buf, tmp[:n]...)
	case KindString:
		buf = append(buf, v.Data...)
		return append(buf, 0)
	case KindBuffer:
		return append(buf, v.Data...)
	case KindPtr:
		var tmp [8]byte
		return append(buf, tmp[:]...)
	case KindArray:
		if v.Type.isRun() {
			return v.encodeRun(buf)
		}
		for _, f := range v.Fields {
			buf = f.encodeTo(buf)
		}
		return buf
	case KindStruct:
		start := len(buf)
		for i, f := range v.Fields {
			var ft *Type
			if i < len(v.Type.Fields) {
				ft = v.Type.Fields[i].Type
			} else {
				ft = f.Type
			}
			a := ft.align()
			for (len(buf)-start)%a != 0 {
				buf = append(buf, 0)
			}
			buf = f.encodeTo(buf)
		}
		a := v.Type.align()
		for (len(buf)-start)%a != 0 {
			buf = append(buf, 0)
		}
		return buf
	case KindUnion:
		start := len(buf)
		if len(v.Fields) > 0 {
			buf = v.Fields[0].encodeTo(buf)
		}
		want := v.Type.Size()
		for len(buf)-start < want {
			buf = append(buf, 0)
		}
		return buf
	}
	return buf
}

// encodeRun appends the run v's encoding: the low Size() bytes of each
// element, stored at a fixed width per element size.
func (v *Value) encodeRun(buf []byte) []byte {
	n, w := v.RunLen(), v.Type.Elem.Size()
	at := len(buf)
	buf = slices.Grow(buf, n*w)[:at+n*w]
	out, src := buf[at:], v.Data
	switch w {
	case 1:
		for len(out) >= 8 {
			binary.LittleEndian.PutUint64(out, uint64(src[0])|uint64(src[8])<<8|uint64(src[16])<<16|uint64(src[24])<<24|
				uint64(src[32])<<32|uint64(src[40])<<40|uint64(src[48])<<48|uint64(src[56])<<56)
			out, src = out[8:], src[64:]
		}
		for i := range out {
			out[i] = src[8*i]
		}
	case 2:
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint16(out[2*i:], binary.LittleEndian.Uint16(src[8*i:]))
		}
	case 4:
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(out[4*i:], binary.LittleEndian.Uint32(src[8*i:]))
		}
	case 8:
		copy(out, src)
	default:
		for i := 0; i < n; i++ {
			copy(out[w*i:w*i+w], src[8*i:])
		}
	}
	return buf
}

// ForEachValue walks every value in the call (args and nested). The
// elements of a run are not values: fn meets the run, not them.
func (c *Call) ForEachValue(fn func(*Value)) {
	for _, a := range c.Args {
		a.walk(fn)
	}
}

func (v *Value) walk(fn func(*Value)) {
	if v == nil {
		return
	}
	fn(v)
	if v.Ptr != nil {
		v.Ptr.walk(fn)
	}
	for _, f := range v.Fields {
		f.walk(fn)
	}
}
