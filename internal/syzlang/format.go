package syzlang

import "strings"

// Format renders a description file back to canonical syzlang text.
// The output is stable: resources, then syscalls, then flags, then
// structs/unions, each in declaration order. Readability of the
// generated text is a first-class goal of the paper (§5.1.1), so the
// formatter takes care to produce output matching the hand-written
// Syzkaller style. The whole file is written into one builder.
func Format(f *File) string {
	var b strings.Builder
	for _, r := range f.Resources {
		b.WriteString("resource ")
		b.WriteString(r.Name)
		b.WriteByte('[')
		b.WriteString(r.Base)
		b.WriteString("]\n")
	}
	if len(f.Resources) > 0 && len(f.Syscalls) > 0 {
		b.WriteByte('\n')
	}
	for _, s := range f.Syscalls {
		writeSyscall(&b, s)
		b.WriteByte('\n')
	}
	if len(f.Flags) > 0 {
		b.WriteByte('\n')
		for _, fl := range f.Flags {
			writeFlags(&b, fl)
			b.WriteByte('\n')
		}
	}
	for _, st := range f.Structs {
		b.WriteByte('\n')
		writeStruct(&b, st)
	}
	for _, u := range f.Unions {
		b.WriteByte('\n')
		writeUnion(&b, u)
	}
	return b.String()
}

func writeSyscall(b *strings.Builder, s *SyscallDef) {
	b.WriteString(s.CallName)
	if s.Variant != "" {
		b.WriteByte('$')
		b.WriteString(s.Variant)
	}
	b.WriteByte('(')
	for i, a := range s.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		b.WriteByte(' ')
		a.Type.writeTo(b)
		writeAttrs(b, a.Attrs)
	}
	b.WriteByte(')')
	if s.Ret != "" {
		b.WriteByte(' ')
		b.WriteString(s.Ret)
	}
}

func writeStruct(b *strings.Builder, st *StructDef) {
	b.WriteString(st.Name)
	b.WriteString(" {\n")
	writeFields(b, st.Fields)
	b.WriteByte('}')
	if len(st.Attrs) > 0 {
		b.WriteString(" [")
		writeList(b, st.Attrs)
		b.WriteByte(']')
	}
	b.WriteByte('\n')
}

func writeUnion(b *strings.Builder, u *UnionDef) {
	b.WriteString(u.Name)
	b.WriteString(" [\n")
	writeFields(b, u.Fields)
	b.WriteString("]\n")
}

// writeFields writes struct or union members, one per line.
func writeFields(b *strings.Builder, fields []*Field) {
	for _, f := range fields {
		b.WriteByte('\t')
		b.WriteString(f.Name)
		b.WriteByte('\t')
		f.Type.writeTo(b)
		writeAttrs(b, f.Attrs)
		b.WriteByte('\n')
	}
}

func writeFlags(b *strings.Builder, fl *FlagsDef) {
	b.WriteString(fl.Name)
	b.WriteString(" = ")
	for i, v := range fl.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		if v.Name != "" {
			b.WriteString(v.Name)
		} else {
			writeUint(b, v.Value)
		}
	}
}

func writeAttrs(b *strings.Builder, attrs []string) {
	if len(attrs) == 0 {
		return
	}
	b.WriteString(" (")
	writeList(b, attrs)
	b.WriteByte(')')
}

// writeList writes items separated by ", ".
func writeList(b *strings.Builder, items []string) {
	for i, s := range items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s)
	}
}
