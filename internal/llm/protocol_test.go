package llm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The reference protocol writers and the bullet splitter, as they were
// written with fmt and a map: the in-place forms must produce the same
// text and the same values.

func refFormatIdentResult(r *IdentResult) string {
	var b strings.Builder
	if r.DevicePath != "" {
		b.WriteString("## Device Path\n")
		b.WriteString(r.DevicePath + "\n")
	}
	if r.Domain != "" || r.Level != "" {
		fmt.Fprintf(&b, "## Socket Family\n- DOMAIN: %s\n- LEVEL: %s\n", orDash(r.Domain), orDash(r.Level))
	}
	if len(r.Cmds) > 0 {
		b.WriteString("## Commands\n")
		for _, c := range r.Cmds {
			fmt.Fprintf(&b, "- MACRO: %s HANDLER: %s ARG: %s DIR: %s PLAIN: %t\n",
				c.Macro, orDash(c.Handler), argField(c), orDash(c.Dir), c.Plain)
		}
	}
	if len(r.Calls) > 0 {
		b.WriteString("## Socket Calls\n")
		for _, c := range r.Calls {
			fmt.Fprintf(&b, "- CALL: %s ADDR: %s FN: %s\n", c.Call, orDash(c.Addr), orDash(c.Fn))
		}
	}
	refWriteUnknown(&b, r.Unknown)
	return b.String()
}

func refWriteUnknown(b *strings.Builder, refs []UnknownRef) {
	if len(refs) == 0 {
		return
	}
	b.WriteString("## Unknown\n")
	for _, u := range refs {
		fmt.Fprintf(b, "- %s: %s USAGE: %s\n", u.Kind, u.Name, u.Usage)
	}
}

func refFormatTypeResult(r *TypeResult) string {
	var b strings.Builder
	b.WriteString("## Type Definitions\n")
	b.WriteString(r.Defs)
	if !strings.HasSuffix(r.Defs, "\n") {
		b.WriteByte('\n')
	}
	refWriteUnknown(&b, r.Unknown)
	return b.String()
}

func refFormatDepResult(r *DepResult) string {
	var b strings.Builder
	b.WriteString("## Dependencies\n")
	for _, d := range r.Deps {
		fmt.Fprintf(&b, "- CMD: %s CREATES: %s FOPS: %s\n", d.Cmd, d.Creates, orDash(d.Fops))
	}
	refWriteUnknown(&b, r.Unknown)
	return b.String()
}

func refParseKV(ln string) map[string]string {
	out := map[string]string{}
	ln = strings.TrimPrefix(strings.TrimSpace(ln), "- ")
	key := ""
	var val []string
	flush := func() {
		if key != "" {
			out[key] = strings.Join(val, " ")
		}
		val = nil
	}
	for _, f := range strings.Fields(ln) {
		if strings.HasSuffix(f, ":") && isAllCaps(strings.TrimSuffix(f, ":")) {
			flush()
			key = strings.TrimSuffix(f, ":")
			continue
		}
		val = append(val, f)
	}
	flush()
	return out
}

// word draws a protocol field: often empty (the "-" placeholder
// path), sometimes with spaces, a colon or a non-ASCII byte.
func word(rng *rand.Rand) string {
	pieces := []string{"", "", "foo", "BAR_CMD", "x y", "KEY:", "é", "a\tb", "int", "-"}
	return pieces[rng.Intn(len(pieces))] + pieces[rng.Intn(len(pieces))]
}

func randomResults(rng *rand.Rand) (*IdentResult, *TypeResult, *DepResult) {
	var unknown []UnknownRef
	for range rng.Intn(3) {
		unknown = append(unknown, UnknownRef{Kind: word(rng), Name: word(rng), Usage: word(rng)})
	}
	ident := &IdentResult{DevicePath: word(rng), Domain: word(rng), Level: word(rng), Unknown: unknown}
	for range rng.Intn(4) {
		ident.Cmds = append(ident.Cmds, CmdDecl{Macro: word(rng), Handler: word(rng), Arg: word(rng),
			ArgInt: rng.Intn(2) == 0, Dir: word(rng), Plain: rng.Intn(2) == 0})
	}
	for range rng.Intn(3) {
		ident.Calls = append(ident.Calls, SockCallDecl{Call: word(rng), Addr: word(rng), Fn: word(rng)})
	}
	types := &TypeResult{Defs: word(rng) + []string{"", "\n"}[rng.Intn(2)], Unknown: unknown}
	deps := &DepResult{Unknown: unknown}
	for range rng.Intn(3) {
		deps.Deps = append(deps.Deps, DepDecl{Cmd: word(rng), Creates: word(rng), Fops: word(rng)})
	}
	return ident, types, deps
}

// TestFormatMatchesReference: the completion writers produce the
// reference's text, each in one exactly sized allocation.
func TestFormatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		ident, types, deps := randomResults(rng)
		for _, c := range []struct {
			what      string
			got, want func() string
		}{
			{"ident", func() string { return FormatIdentResult(ident) }, func() string { return refFormatIdentResult(ident) }},
			{"type", func() string { return FormatTypeResult(types) }, func() string { return refFormatTypeResult(types) }},
			{"dep", func() string { return FormatDepResult(deps) }, func() string { return refFormatDepResult(deps) }},
		} {
			if got, want := c.got(), c.want(); got != want {
				t.Fatalf("%s: got %q, want %q", c.what, got, want)
			}
			if i%50 == 0 {
				if n := testing.AllocsPerRun(5, func() { c.got() }); n != 1 {
					t.Fatalf("%s: %v allocations, want 1 (a presized builder)", c.what, n)
				}
			}
		}
	}
}

// TestParseKVMatchesReference: the pairs parseKV returns read, key by
// key, as the reference map does, on random bullets and on the
// white-space and repeated-key edges.
func TestParseKVMatchesReference(t *testing.T) {
	lines := []string{
		"", "- ", "-", "no keys here", "- CMD: a CREATES: b FOPS: -",
		"- CMD:   a  \t b CREATES:\tx", "CMD: a CMD: b", "- A: B: C:", "x: y Z: w",
		"- CMD: a b c d CREATES: \u0085e", "- CMD: \xffa \xc2 b", " - CMD: a ",
		"- Cmd: a CMD: b", "- _: a __: b", "- CMD:a CREATES: :",
	}
	rng := rand.New(rand.NewSource(2))
	tokens := []string{"CMD:", "FOPS:", "x", "Ab:", " ", "  ", "\t", " ", "-", "é", ":", "\n", "\xff"}
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for range rng.Intn(10) {
			b.WriteString(tokens[rng.Intn(len(tokens))])
		}
		lines = append(lines, b.String())
	}
	var buf [2]kvPair // small, so that long bullets take the growth path too
	for _, ln := range lines {
		want := refParseKV(ln)
		pairs := parseKV(ln, buf[:0])
		got := map[string]string{}
		for _, p := range pairs {
			got[p.key] = kvGet(pairs, p.key)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parseKV(%q) = %q, want %q", ln, got, want)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		var buf [8]kvPair
		parseKV("- MACRO: A HANDLER: b ARG: int DIR: in PLAIN: false", buf[:0])
	}); n != 0 {
		t.Fatalf("parseKV of a bullet the sim writes made %v allocations", n)
	}
}

// TestExtractSectionEmptyBeforeHeading: a section whose next line is
// a heading is empty; it does not read on into the next section.
func TestExtractSectionEmptyBeforeHeading(t *testing.T) {
	text := "## A\n## B\nx"
	if got := ExtractSection(text, "## A"); got != "" {
		t.Fatalf("ExtractSection A = %q, want empty", got)
	}
	if got := ExtractSection(text, "## B"); got != "x" {
		t.Fatalf("ExtractSection B = %q, want %q", got, "x")
	}
}

// TestDepResultUnknownsAreNotDependencies: a dependency answer with no
// dependencies and an Unknown section reads back with no dependencies
// and its unknowns, its Dependencies section empty.
func TestDepResultUnknownsAreNotDependencies(t *testing.T) {
	text := FormatDepResult(&DepResult{Unknown: []UnknownRef{{Kind: "FUNC", Name: "kvm_dev_ioctl", Usage: "CMD: KVM_CREATE_VM"}}})
	if !strings.HasPrefix(text, "## Dependencies\n## Unknown\n") {
		t.Fatalf("unexpected layout %q", text)
	}
	if body := ExtractSection(text, "## Dependencies"); body != "" {
		t.Fatalf("Dependencies section reads %q, want empty", body)
	}
	r := ParseDepResult(text)
	if len(r.Deps) != 0 || len(r.Unknown) != 1 || r.Unknown[0].Name != "kvm_dev_ioctl" {
		t.Fatalf("ParseDepResult = %+v", r)
	}
}
