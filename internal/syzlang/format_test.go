package syzlang_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/syzlang"
)

// The reference formatter: the Sprintf/Join form the one-builder
// formatter replaced. Format and the String methods must print what it
// prints, for whole files and for one declaration at a time.

func refFormat(f *syzlang.File) string {
	var b strings.Builder
	for _, r := range f.Resources {
		fmt.Fprintf(&b, "resource %s[%s]\n", r.Name, r.Base)
	}
	if len(f.Resources) > 0 && len(f.Syscalls) > 0 {
		b.WriteByte('\n')
	}
	for _, s := range f.Syscalls {
		b.WriteString(refFormatSyscall(s))
		b.WriteByte('\n')
	}
	if len(f.Flags) > 0 {
		b.WriteByte('\n')
		for _, fl := range f.Flags {
			b.WriteString(refFormatFlags(fl))
			b.WriteByte('\n')
		}
	}
	for _, st := range f.Structs {
		b.WriteByte('\n')
		b.WriteString(refFormatStruct(st))
	}
	for _, u := range f.Unions {
		b.WriteByte('\n')
		b.WriteString(refFormatUnion(u))
	}
	return b.String()
}

func refFormatSyscall(s *syzlang.SyscallDef) string {
	args := make([]string, len(s.Args))
	for i, a := range s.Args {
		args[i] = a.Name + " " + refTypeString(a.Type) + refAttrs(a.Attrs)
	}
	text := s.Name() + "(" + strings.Join(args, ", ") + ")"
	if s.Ret != "" {
		text += " " + s.Ret
	}
	return text
}

func refFormatStruct(st *syzlang.StructDef) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s {\n", st.Name)
	for _, f := range st.Fields {
		fmt.Fprintf(&b, "\t%s\t%s%s\n", f.Name, refTypeString(f.Type), refAttrs(f.Attrs))
	}
	b.WriteString("}")
	if len(st.Attrs) > 0 {
		fmt.Fprintf(&b, " [%s]", strings.Join(st.Attrs, ", "))
	}
	b.WriteByte('\n')
	return b.String()
}

func refFormatUnion(u *syzlang.UnionDef) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [\n", u.Name)
	for _, f := range u.Fields {
		fmt.Fprintf(&b, "\t%s\t%s%s\n", f.Name, refTypeString(f.Type), refAttrs(f.Attrs))
	}
	b.WriteString("]\n")
	return b.String()
}

func refFormatFlags(fl *syzlang.FlagsDef) string {
	parts := make([]string, len(fl.Values))
	for i, v := range fl.Values {
		if v.Name != "" {
			parts[i] = v.Name
		} else {
			parts[i] = strconv.FormatUint(v.Value, 10)
		}
	}
	return fl.Name + " = " + strings.Join(parts, ", ")
}

func refAttrs(attrs []string) string {
	if len(attrs) == 0 {
		return ""
	}
	return fmt.Sprintf(" (%s)", strings.Join(attrs, ", "))
}

func refTypeString(t *syzlang.TypeExpr) string {
	if t == nil {
		return "<nil>"
	}
	if len(t.Args) == 0 {
		return t.Ident
	}
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = refArgString(a)
	}
	return t.Ident + "[" + strings.Join(parts, ", ") + "]"
}

func refArgString(a *syzlang.TypeArg) string {
	switch {
	case a.HasRange:
		return strconv.FormatInt(a.Min, 10) + ":" + strconv.FormatInt(a.Max, 10)
	case a.HasInt:
		return strconv.FormatUint(a.Int, 10)
	case a.HasStr:
		return "\"" + refEscape(a.Str) + "\""
	case a.Type != nil:
		return refTypeString(a.Type)
	}
	return "?"
}

func refEscape(s string) string {
	r := strings.NewReplacer("\n", `\n`, "\t", `\t`, "\x00", `\0`, `"`, `\"`, `\`, `\\`)
	return r.Replace(s)
}

// checkFormat compares Format on f, and on each of f's declarations
// alone, with the reference.
func checkFormat(t *testing.T, f *syzlang.File) {
	t.Helper()
	if got, want := syzlang.Format(f), refFormat(f); got != want {
		t.Fatalf("Format:\n got %q\nwant %q", got, want)
	}
	one := func(kind string, g *syzlang.File, want string) {
		t.Helper()
		if got := syzlang.Format(g); got != want {
			t.Fatalf("Format of one %s: got %q, want %q", kind, got, want)
		}
	}
	var types []*syzlang.TypeExpr
	for _, s := range f.Syscalls {
		one("syscall", &syzlang.File{Syscalls: []*syzlang.SyscallDef{s}}, refFormatSyscall(s)+"\n")
		for _, a := range s.Args {
			types = append(types, a.Type)
		}
	}
	for _, st := range f.Structs {
		one("struct", &syzlang.File{Structs: []*syzlang.StructDef{st}}, "\n"+refFormatStruct(st))
		for _, fl := range st.Fields {
			types = append(types, fl.Type)
		}
	}
	for _, u := range f.Unions {
		one("union", &syzlang.File{Unions: []*syzlang.UnionDef{u}}, "\n"+refFormatUnion(u))
		for _, fl := range u.Fields {
			types = append(types, fl.Type)
		}
	}
	for _, fl := range f.Flags {
		one("flags", &syzlang.File{Flags: []*syzlang.FlagsDef{fl}}, "\n"+refFormatFlags(fl)+"\n")
	}
	for len(types) > 0 {
		te := types[0]
		types = types[1:]
		if got, want := te.String(), refTypeString(te); got != want {
			t.Fatalf("TypeExpr.String: got %q, want %q", got, want)
		}
		if te == nil {
			continue
		}
		for _, a := range te.Args {
			if got, want := a.String(), refArgString(a); got != want {
				t.Fatalf("TypeArg.String: got %q, want %q", got, want)
			}
			if a.Type != nil {
				types = append(types, a.Type)
			}
		}
	}
}

// oracleSuite is every handler's ground-truth spec of the full-scale
// corpus, merged into one file.
var oracleSuite = sync.OnceValue(func() *syzlang.File {
	c := corpus.Build(corpus.Config{Scale: 1})
	merged := &syzlang.File{}
	for _, h := range c.Handlers {
		merged.Merge(corpus.OracleSpec(h))
	}
	return merged
})

// TestFormatMatchesReference: the corpus's suites, the full-scale
// oracle suite and the edges the reference spells out (a nil type,
// escapes, negative and extreme ranges) format as the reference does.
func TestFormatMatchesReference(t *testing.T) {
	checkFormat(t, testCorpus.ExistingSuite())
	checkFormat(t, oracleSuite())
	for _, h := range testCorpus.Handlers {
		if spec := corpus.SyzkallerSpec(h); spec != nil {
			checkFormat(t, spec)
		}
	}
	edge := &syzlang.File{
		Resources: []*syzlang.ResourceDef{{Name: "r", Base: "fd"}},
		Syscalls: []*syzlang.SyscallDef{{CallName: "f", Args: []*syzlang.Field{
			{Name: "a", Type: nil},
			{Name: "b", Type: &syzlang.TypeExpr{Ident: "t", Args: []*syzlang.TypeArg{
				{HasRange: true, Min: -1 << 63, Max: 1<<63 - 1},
				{HasInt: true, Int: 1<<64 - 1},
				{HasStr: true, Str: "q\"\\\n\t\x00é"},
				{},
				{Type: &syzlang.TypeExpr{Ident: "u"}},
			}}, Attrs: []string{"in", "out"}},
		}, Ret: "r"}},
		Structs: []*syzlang.StructDef{{Name: "s", Attrs: []string{"packed", "align[8]"}}},
		Unions:  []*syzlang.UnionDef{{Name: "u", Fields: []*syzlang.Field{{Name: "x", Type: &syzlang.TypeExpr{Ident: "int8"}, Attrs: []string{"out"}}}}},
		Flags:   []*syzlang.FlagsDef{{Name: "fl", Values: []syzlang.FlagValue{{Name: "A"}, {Value: 0}, {Value: 42}}}},
	}
	checkFormat(t, edge)
}

// TestFormatAllocs is the formatter's allocation budget: Format of the
// full-scale merged oracle suite writes one builder, so it allocates
// only as the builder grows (651 KB of text). The budget is 5% above
// the measured 30; the Sprintf/Join formatter made 76 251.
func TestFormatAllocs(t *testing.T) {
	suite := oracleSuite()
	const budget = 31
	if got := testing.AllocsPerRun(5, func() { syzlang.Format(suite) }); got > budget {
		t.Fatalf("Format of the merged oracle suite made %.0f allocations, budget %d", got, budget)
	}
}
