package syzlang

import "strings"

// File is a parsed syzlang description file.
type File struct {
	Resources []*ResourceDef
	Syscalls  []*SyscallDef
	Structs   []*StructDef
	Unions    []*UnionDef
	Flags     []*FlagsDef
}

// ResourceDef declares a resource kind, e.g. "resource fd_dm[fd]".
type ResourceDef struct {
	Name string
	Base string // underlying type or parent resource name
	Pos  Pos
}

// SyscallDef describes one syscall variant, e.g.
// "ioctl$DM_DEV_CREATE(fd fd_dm, cmd const[DM_DEV_CREATE], arg ptr[in, dm_ioctl]) fd_dm".
type SyscallDef struct {
	CallName string // base syscall, e.g. "ioctl"
	Variant  string // after '$', may be empty
	Args     []*Field
	Ret      string // resource name or empty
	Pos      Pos
}

// Name returns the full syscall name including the variant suffix.
func (s *SyscallDef) Name() string {
	if s.Variant == "" {
		return s.CallName
	}
	return s.CallName + "$" + s.Variant
}

// Field is a named, typed slot: a syscall argument or a struct/union
// member.
type Field struct {
	Name string
	Type *TypeExpr
	// Attrs holds trailing parenthesized attributes such as (out) on
	// struct fields.
	Attrs []string
	Pos   Pos
}

// StructDef describes a struct type: "name { fields... }".
type StructDef struct {
	Name   string
	Fields []*Field
	// Attrs holds trailing attributes such as [packed].
	Attrs []string
	Pos   Pos
}

// UnionDef describes a union type: "name [ options... ]".
type UnionDef struct {
	Name   string
	Fields []*Field
	Pos    Pos
}

// FlagsDef describes a flag-set definition: "name = A, B, C".
type FlagsDef struct {
	Name   string
	Values []FlagValue
	Pos    Pos
}

// FlagValue is one member of a flags definition: either a named
// constant or an integer literal.
type FlagValue struct {
	Name  string // empty for integer literals
	Value uint64 // used when Name is empty
}

// TypeExpr is a (possibly parameterized) type expression such as
// int32, const[DM_VERSION], ptr[in, dm_ioctl], array[int8, 16],
// string["/dev/msm"], int32[0:3], len[devices, int32], flags[f, int32].
type TypeExpr struct {
	Ident string
	// Args holds bracketed arguments; each is a type expression,
	// an integer, a string, or a range.
	Args []*TypeArg
	Pos  Pos
}

// TypeArg is one bracketed argument of a type expression.
type TypeArg struct {
	// Exactly one of the following is meaningful.
	Type     *TypeExpr // nested type or bare identifier
	Int      uint64    // when HasInt
	Str      string    // when HasStr
	Min, Max int64     // when HasRange
	Pos      Pos
	// The flags sit together, which packs an argument into 80 bytes
	// rather than 96.
	HasInt, HasStr, HasRange bool
}

// String renders the type expression in canonical syzlang syntax.
func (t *TypeExpr) String() string {
	if t != nil && len(t.Args) == 0 {
		return t.Ident
	}
	var b strings.Builder
	t.writeTo(&b)
	return b.String()
}

// writeTo writes what String returns.
func (t *TypeExpr) writeTo(b *strings.Builder) {
	if t == nil {
		b.WriteString("<nil>")
		return
	}
	b.WriteString(t.Ident)
	if len(t.Args) == 0 {
		return
	}
	b.WriteByte('[')
	for i, a := range t.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		a.writeTo(b)
	}
	b.WriteByte(']')
}

// String renders the type argument in canonical syntax.
func (a *TypeArg) String() string {
	var b strings.Builder
	a.writeTo(&b)
	return b.String()
}

// writeTo writes what String returns.
func (a *TypeArg) writeTo(b *strings.Builder) {
	switch {
	case a.HasRange:
		writeInt(b, a.Min)
		b.WriteByte(':')
		writeInt(b, a.Max)
	case a.HasInt:
		writeUint(b, a.Int)
	case a.HasStr:
		b.WriteByte('"')
		writeEscaped(b, a.Str)
		b.WriteByte('"')
	case a.Type != nil:
		a.Type.writeTo(b)
	default:
		b.WriteByte('?')
	}
}

// writeEscaped writes s the way the lexer reads string literals back:
// the escapes it knows for newline, tab and NUL, a backslash before a
// quote or a backslash, every other byte as itself.
func writeEscaped(b *strings.Builder, s string) {
	if !strings.ContainsAny(s, "\"\\\n\t\x00") {
		b.WriteString(s)
		return
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case 0:
			b.WriteString(`\0`)
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
}

func writeInt(b *strings.Builder, v int64) {
	if v < 0 {
		b.WriteByte('-')
		writeUint(b, uint64(-v))
		return
	}
	writeUint(b, uint64(v))
}

func writeUint(b *strings.Builder, v uint64) {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		if v /= 10; v == 0 {
			break
		}
	}
	b.Write(buf[i:])
}

// Merge appends the contents of other into f.
func (f *File) Merge(other *File) {
	if other == nil {
		return
	}
	f.Resources = append(f.Resources, other.Resources...)
	f.Syscalls = append(f.Syscalls, other.Syscalls...)
	f.Structs = append(f.Structs, other.Structs...)
	f.Unions = append(f.Unions, other.Unions...)
	f.Flags = append(f.Flags, other.Flags...)
}
