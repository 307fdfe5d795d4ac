package syzlang

import (
	"strings"
	"testing"
	"testing/quick"
)

const dmSpec = `
resource fd_dm[fd]

openat$dm(fd const[AT_FDCWD], file ptr[in, string["/dev/mapper/control"]], flags flags[open_flags], mode const[0]) fd_dm
ioctl$DM_VERSION(fd fd_dm, cmd const[DM_VERSION], arg ptr[inout, dm_ioctl])
ioctl$DM_LIST_DEVICES(fd fd_dm, cmd const[DM_LIST_DEVICES], arg ptr[inout, dm_ioctl])

open_flags = O_RDWR, O_RDONLY

dm_ioctl {
	version		array[int32, 3]
	data_size	int32
	data_start	int32
	target_count	int32
	flags		int32
	name		array[int8, 128]
	data		array[int8]
}
`

func testEnv() *Env {
	return NewEnv(map[string]uint64{
		"AT_FDCWD":        0xffffff9c,
		"DM_VERSION":      0xc138fd00,
		"DM_LIST_DEVICES": 0xc138fd11,
		"O_RDWR":          2,
		"O_RDONLY":        0,
	})
}

func TestParseDMSpec(t *testing.T) {
	f, errs := Parse(dmSpec)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	if len(f.Resources) != 1 || f.Resources[0].Name != "fd_dm" || f.Resources[0].Base != "fd" {
		t.Fatalf("bad resources: %+v", f.Resources)
	}
	if len(f.Syscalls) != 3 {
		t.Fatalf("want 3 syscalls, got %d", len(f.Syscalls))
	}
	open := f.Syscalls[0]
	if open.Name() != "openat$dm" || open.Ret != "fd_dm" || len(open.Args) != 4 {
		t.Fatalf("bad openat: %+v", open)
	}
	if got := open.Args[1].Type.String(); got != `ptr[in, string["/dev/mapper/control"]]` {
		t.Fatalf("bad file arg type: %s", got)
	}
	if len(f.Structs) != 1 || f.Structs[0].Name != "dm_ioctl" || len(f.Structs[0].Fields) != 7 {
		t.Fatalf("bad struct: %+v", f.Structs)
	}
	if len(f.Flags) != 1 || f.Flags[0].Name != "open_flags" || len(f.Flags[0].Values) != 2 {
		t.Fatalf("bad flags: %+v", f.Flags)
	}
}

func TestValidateDMSpecClean(t *testing.T) {
	f := MustParse(dmSpec)
	if errs := Validate(f, testEnv()); len(errs) > 0 {
		t.Fatalf("unexpected validation errors: %v", errs)
	}
}

func TestParseUnion(t *testing.T) {
	src := `
msg_body [
	text	array[int8, 64]
	num	int64
]
dummy$call(a ptr[in, msg_body])
`
	f, errs := Parse(src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	if len(f.Unions) != 1 || f.Unions[0].Name != "msg_body" || len(f.Unions[0].Fields) != 2 {
		t.Fatalf("bad union: %+v", f.Unions)
	}
}

func TestParseFieldAttrs(t *testing.T) {
	src := `
drm_msm_submitqueue {
	flags	flags[msm_submitqueue_flags, int32]
	prio	int32[0:3]
	id	msm_submitqueue_id	(out)
}
msm_submitqueue_flags = F_A, F_B
resource msm_submitqueue_id[int32]
ioctl$NEW(fd fd, cmd const[1], arg ptr[inout, drm_msm_submitqueue]) msm_submitqueue_id
`
	f, errs := Parse(src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	st := f.Structs[0]
	if len(st.Fields) != 3 {
		t.Fatalf("want 3 fields, got %d", len(st.Fields))
	}
	if st.Fields[1].Type.String() != "int32[0:3]" {
		t.Fatalf("bad range type: %s", st.Fields[1].Type)
	}
	if len(st.Fields[2].Attrs) != 1 || st.Fields[2].Attrs[0] != "out" {
		t.Fatalf("bad attrs: %+v", st.Fields[2].Attrs)
	}
}

func TestParseSyntaxErrorRecovers(t *testing.T) {
	src := `
resource fd_x[fd
ioctl$OK(fd fd_x, cmd const[1])
`
	f, errs := Parse(src)
	if len(errs) == 0 {
		t.Fatal("expected a syntax error")
	}
	// The good line after the bad one must still parse.
	if len(f.Syscalls) != 1 || f.Syscalls[0].Name() != "ioctl$OK" {
		t.Fatalf("parser did not recover: %+v", f.Syscalls)
	}
}

func TestParseHexAndNegative(t *testing.T) {
	src := `dummy$x(a const[0xdeadbeef], b int64[-1:5])` + "\n"
	f, errs := Parse(src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	a := f.Syscalls[0].Args[0].Type
	if !a.Args[0].HasInt || a.Args[0].Int != 0xdeadbeef {
		t.Fatalf("bad hex const: %+v", a.Args[0])
	}
	b := f.Syscalls[0].Args[1].Type
	if !b.Args[0].HasRange || b.Args[0].Min != -1 || b.Args[0].Max != 5 {
		t.Fatalf("bad negative range: %+v", b.Args[0])
	}
}

func TestParseComments(t *testing.T) {
	src := `
# leading comment
resource r1[fd]	# trailing comment
use$r(a r1)
`
	f, errs := Parse(src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	if len(f.Resources) != 1 || len(f.Syscalls) != 1 {
		t.Fatalf("comments broke parsing: %+v", f)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	f := MustParse(dmSpec)
	text := Format(f)
	f2, errs := Parse(text)
	if len(errs) > 0 {
		t.Fatalf("formatted output does not reparse: %v\n%s", errs, text)
	}
	if Format(f2) != text {
		t.Fatalf("format not idempotent:\n--- first\n%s\n--- second\n%s", text, Format(f2))
	}
}

func TestFormatRoundTripPreservesCounts(t *testing.T) {
	f := MustParse(dmSpec)
	f2 := MustParse(Format(f))
	if len(f2.Syscalls) != len(f.Syscalls) ||
		len(f2.Structs) != len(f.Structs) ||
		len(f2.Resources) != len(f.Resources) ||
		len(f2.Flags) != len(f.Flags) {
		t.Fatalf("round trip lost declarations: %+v vs %+v", f, f2)
	}
}

func TestParseTypeExpr(t *testing.T) {
	te, err := ParseTypeExpr("ptr[inout, array[int8, 0:16]]")
	if err != nil {
		t.Fatal(err)
	}
	if te.String() != "ptr[inout, array[int8, 0:16]]" {
		t.Fatalf("bad round trip: %s", te)
	}
	if _, err := ParseTypeExpr("ptr[in,"); err == nil {
		t.Fatal("expected error for truncated type")
	}
}

// identChars is the alphabet used to generate random identifiers.
const identChars = "abcdefghijklmnopqrstuvwxyz_"

func randIdent(seed uint64) string {
	n := 1 + int(seed%12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		b.WriteByte(identChars[seed%uint64(len(identChars))])
	}
	return b.String()
}

// TestQuickLexerNeverPanics feeds arbitrary byte strings to the lexer
// and checks it reaches EOF without panicking: every token consumes at
// least one byte, so len(data) calls to Next are always enough.
func TestQuickLexerNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		l := NewLexer(string(data))
		for range data {
			if l.Next().Kind == TokEOF {
				return true
			}
		}
		return l.Next().Kind == TokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParserNeverPanics feeds arbitrary strings to the parser.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		Parse(string(data)) //nolint:errcheck // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFormatParseRoundTrip builds random (valid-by-construction)
// specs and checks Format/Parse is a fixed point.
func TestQuickFormatParseRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		name := randIdent(seed)
		src := "resource r_" + name + "[fd]\n" +
			"ioctl$" + strings.ToUpper(randIdent(seed+1)) + "(fd r_" + name + ", cmd const[1], arg ptr[in, array[int8]])\n"
		file, errs := Parse(src)
		if len(errs) > 0 {
			return false
		}
		text := Format(file)
		file2, errs2 := Parse(text)
		return len(errs2) == 0 && Format(file2) == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
