package prog

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Value is a concrete argument value for a compiled type.
type Value struct {
	Type *Type
	// Scalar holds Int/Const/Flags/Len values.
	Scalar uint64
	// Data holds String/Buffer bytes.
	Data []byte
	// Fields holds struct members or array elements.
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

// Call is one syscall invocation in a program.
type Call struct {
	Sc   *Syscall
	Args []*Value
}

// Prog is a sequence of calls (the fuzzer's unit of execution).
type Prog struct {
	Calls []*Call
	// scratch marks a program that lives in a Gen's reusable arena:
	// it is valid only until that Gen's next Generate/Mutate/MutateOp.
	scratch bool
}

// Clone deep-copies the program into one freshly allocated arena
// (the same allocator a Gen builds candidates in, sized here to fit
// exactly). The result is heap-owned: ordinary addressable values the
// caller may keep and mutate freely.
func (p *Prog) Clone() *Prog {
	a := new(arena)
	a.reserve(p)
	return a.cloneProg(p, 0, false)
}

// Detach returns a program the caller may keep: p itself when it is
// heap-owned, a Clone when it is a Gen's scratch candidate. This is
// the one ownership rule — whoever retains a candidate past the Gen's
// next Generate/Mutate/MutateOp detaches it first (the seed pool does
// so on admission).
func (p *Prog) Detach() *Prog {
	if p.scratch {
		return p.Clone()
	}
	return p
}

// String renders the program in a syz-prog-like text form.
func (p *Prog) String() string {
	var b strings.Builder
	for i, c := range p.Calls {
		fmt.Fprintf(&b, "r%d = %s(", i, c.Sc.Name)
		for j, a := range c.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// String renders a value compactly.
func (v *Value) String() string {
	if v == nil {
		return "nil"
	}
	switch v.Type.Kind {
	case KindInt, KindConst, KindFlags, KindLen:
		return fmt.Sprintf("0x%x", v.Scalar)
	case KindResource:
		if v.ResultOf >= 0 {
			return fmt.Sprintf("r%d", v.ResultOf)
		}
		return "badfd"
	case KindString:
		return fmt.Sprintf("&%q", string(v.Data))
	case KindBuffer:
		return fmt.Sprintf("&[%d bytes]", len(v.Data))
	case KindPtr:
		if v.Ptr == nil {
			return "NULL"
		}
		return "&" + v.Ptr.String()
	case KindStruct, KindUnion:
		parts := make([]string, len(v.Fields))
		for i, f := range v.Fields {
			parts[i] = f.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case KindArray:
		return fmt.Sprintf("[%d elems]", len(v.Fields))
	}
	return "?"
}

// FixupLens computes every KindLen field from its sibling target:
// element count for arrays, byte size otherwise. It must run after
// any structural mutation and before encoding.
func (c *Call) FixupLens() {
	for i, f := range c.Sc.Args {
		if f.Type.Kind != KindLen || i >= len(c.Args) {
			continue
		}
		for j, g := range c.Sc.Args {
			if g.Name == f.Type.LenTarget && j < len(c.Args) {
				c.Args[i].Scalar = measure(c.Args[j], f.Type.InBytes)
			}
		}
	}
	for _, a := range c.Args {
		a.fixupLensRec()
	}
}

func (v *Value) fixupLensRec() {
	if v == nil {
		return
	}
	switch v.Type.Kind {
	case KindPtr:
		if v.Ptr != nil {
			v.Ptr.fixupLensRec()
		}
	case KindStruct:
		fixupValueGroup(v.Type, v.Fields)
		for _, f := range v.Fields {
			f.fixupLensRec()
		}
	case KindUnion, KindArray:
		for _, f := range v.Fields {
			f.fixupLensRec()
		}
	}
}

// fixupValueGroup resolves len fields within one struct instance.
func fixupValueGroup(st *Type, fields []*Value) {
	for i, f := range st.Fields {
		if f.Type.Kind != KindLen || i >= len(fields) {
			continue
		}
		for j, g := range st.Fields {
			if g.Name == f.Type.LenTarget && j < len(fields) {
				fields[i].Scalar = measure(fields[j], f.Type.InBytes)
			}
		}
	}
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
		return uint64(len(v.Fields))
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

// ForEachValue walks every value in the call (args and nested).
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
