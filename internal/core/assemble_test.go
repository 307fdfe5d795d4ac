package core

import (
	"reflect"
	"testing"

	"kernelgpt/internal/syzlang"
)

// TestConstructedTypesMatchParser: a type built by the constructors is
// node for node — identifiers, arguments and source positions — what
// the parser makes of its rendering, so validation errors cite and
// sort by the same positions whichever way the type was made. A leaf
// that is not a bare identifier takes the parser's path, including its
// buffer-argument fallback for text that does not parse.
func TestConstructedTypesMatchParser(t *testing.T) {
	intRange := &syzlang.TypeExpr{Ident: "int32", Args: []*syzlang.TypeArg{{HasRange: true, Min: 0, Max: 128}}}
	for _, te := range []*syzlang.TypeExpr{
		named("fd_dm"), named("int32"), intRange,
		constOf("DM_VERSION"), constOf("DM_VERSION_FIXME"), constOf(""), constInt(0), constInt(2),
		ptrTo("in", named("dm_ioctl")), ptrTo("inout", named("x")), ptrTo("out", byteArray()),
		lenOf("optval", "int32"), lenOf("buf", "intptr"), byteArray(),
		// Model answers that are not bare identifiers.
		constOf("2"), constOf("0x10"), constOf("A | B"), constOf("A[3]"), constOf("]"),
		ptrTo("in", named("struct foo")), ptrTo("in", named("a, b")), named("fd_a.b"), named(""),
	} {
		text := te.String()
		want, err := syzlang.ParseTypeExpr(text)
		if err != nil {
			want = byteArray()
		}
		got := mkField("f", te)
		if got.Name != "f" || !reflect.DeepEqual(got.Type, want) {
			t.Errorf("%s: constructed %#v, parser gives %#v", text, got.Type, want)
		}
	}
}
