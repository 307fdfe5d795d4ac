package prog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// raceEnabled reports a race-detector build, whose allocations are
// not the product's.
var raceEnabled bool

// serializeReference is the fmt-based renderer Serialize replaced,
// kept as the oracle it must match byte for byte.
func serializeReference(p *Prog) string {
	var b strings.Builder
	for i, c := range p.Calls {
		if c.Sc.Ret != "" {
			fmt.Fprintf(&b, "r%d = ", i)
		}
		b.WriteString(c.Sc.Name)
		b.WriteByte('(')
		for j, a := range c.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			serializeValueReference(&b, a)
		}
		b.WriteString(")\n")
	}
	return b.String()
}

func serializeValueReference(b *strings.Builder, v *Value) {
	if v == nil {
		b.WriteString("nil")
		return
	}
	switch v.Type.Kind {
	case KindInt, KindConst, KindFlags, KindLen:
		fmt.Fprintf(b, "0x%x", v.Scalar)
	case KindResource:
		if v.ResultOf >= 0 {
			fmt.Fprintf(b, "r%d", v.ResultOf)
		} else {
			b.WriteString("0xffffffffffffffff")
		}
	case KindString:
		fmt.Fprintf(b, "%q", string(v.Data))
	case KindBuffer:
		fmt.Fprintf(b, "#%s#", hexBytes(v.Data))
	case KindPtr:
		if v.Ptr == nil {
			b.WriteString("0x0")
			return
		}
		b.WriteByte('&')
		serializeValueReference(b, v.Ptr)
	case KindStruct:
		b.WriteByte('{')
		for i, f := range v.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			serializeValueReference(b, f)
		}
		b.WriteByte('}')
	case KindUnion:
		fmt.Fprintf(b, "@%d{", v.UnionIdx)
		if len(v.Fields) > 0 {
			serializeValueReference(b, v.Fields[0])
		}
		b.WriteByte('}')
	case KindArray:
		b.WriteByte('[')
		if v.Type.isRun() {
			for i := range v.RunLen() {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(b, "0x%x", v.RunElem(i))
			}
			b.WriteByte(']')
			return
		}
		for i, f := range v.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			serializeValueReference(b, f)
		}
		b.WriteByte(']')
	default:
		b.WriteString("?")
	}
}

func hexBytes(data []byte) string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 0, len(data)*2)
	for _, c := range data {
		out = append(out, hexdigits[c>>4], hexdigits[c&0xf])
	}
	return string(out)
}

// FuzzSerializeMatchesReference checks Serialize against the fmt-based
// renderer on the programs a seed generates and mutates on the
// plumbed and value-shape targets (buffers, unions, arrays of structs,
// scalar runs), and on whatever program text parses on either.
func FuzzSerializeMatchesReference(f *testing.F) {
	targets := []*Target{plumbedTarget(f), shapeTarget(f)}
	for i, tgt := range targets {
		g := NewGen(tgt, 31)
		for j := 0; j < 8; j++ {
			f.Add(int64(i*8+j), uint8(j), g.Generate(2+j).Serialize())
		}
	}
	f.Add(int64(99), uint8(0), "write$shape(0xffffffffffffffff, #00ff7f#, 0x3)\n")
	f.Add(int64(98), uint8(1), "openat$dm(0xffffff9c, &\"\\x00\\xff\\u00e9\\\"\", 0x2, 0x0)\n")
	f.Fuzz(func(t *testing.T, seed int64, calls uint8, text string) {
		for _, tgt := range targets {
			g := NewGen(tgt, seed)
			p := g.Generate(1 + int(calls%16))
			checkSerialize(t, p)
			checkSerialize(t, mutateOnce(g, p, 8))
			if q, err := Deserialize(tgt, text); err == nil {
				checkSerialize(t, q)
			}
		}
	})
}

func checkSerialize(t *testing.T, p *Prog) {
	t.Helper()
	if got, want := p.Serialize(), serializeReference(p); got != want {
		t.Fatalf("Serialize differs from the reference:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSerializeAllocs is the renderer's budget: once its pooled buffer
// is warm, Serialize allocates the returned string and nothing else,
// for the deep target's large nested programs too.
func TestSerializeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	for _, tgt := range []*Target{deepTarget(t), plumbedTarget(t), shapeTarget(t)} {
		g := NewGen(tgt, 7)
		for i := 0; i < 8; i++ {
			p := g.Generate(2 + i).Detach()
			if n := testing.AllocsPerRun(20, func() { p.Serialize() }); n != 1 {
				t.Fatalf("Serialize of a %d-byte program allocates %.0f times, want 1", len(p.Serialize()), n)
			}
		}
	}
}

// deserializeReference is the parser Deserialize replaced, which built
// a heap node per value and grew every slice by append, kept as the
// oracle the arena parser must match: the same accept/reject decision,
// the same error text and the same tree.
func deserializeReference(t *Target, text string) (*Prog, error) {
	p := &Prog{}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		call, err := parseCallLineReference(t, p, line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		p.Calls = append(p.Calls, call)
	}
	if err := p.Validate(t); err != nil {
		return nil, err
	}
	return p, nil
}

func parseCallLineReference(t *Target, p *Prog, line string) (*Call, error) {
	// Optional "rN = " prefix.
	if eq := strings.Index(line, " = "); eq > 0 && strings.HasPrefix(line, "r") {
		idxText := line[1:eq]
		if n, err := strconv.Atoi(idxText); err == nil {
			if n != len(p.Calls) {
				return nil, fmt.Errorf("result index r%d out of order (expected r%d)", n, len(p.Calls))
			}
			line = line[eq+3:]
		}
	}
	open := strings.IndexByte(line, '(')
	if open < 0 || !strings.HasSuffix(line, ")") {
		return nil, fmt.Errorf("malformed call %q", line)
	}
	name := strings.TrimSpace(line[:open])
	sc := t.ByName[name]
	if sc == nil {
		return nil, fmt.Errorf("unknown syscall %q", name)
	}
	d := &refDeserializer{src: line[open+1 : len(line)-1], calls: len(p.Calls)}
	call := &Call{Sc: sc}
	for i, f := range sc.Args {
		if i > 0 {
			if err := d.expect(','); err != nil {
				return nil, err
			}
		}
		v, err := d.value(f.Type)
		if err != nil {
			return nil, fmt.Errorf("arg %s: %w", f.Name, err)
		}
		call.Args = append(call.Args, v)
	}
	d.skipSpace()
	if d.i < len(d.src) {
		return nil, fmt.Errorf("trailing garbage %q", d.src[d.i:])
	}
	return call, nil
}

type refDeserializer struct {
	src string
	i   int
	// calls is the number of calls parsed before this line; a
	// resource reference rN is only valid for N < calls.
	calls int
}

func (d *refDeserializer) skipSpace() {
	for d.i < len(d.src) && (d.src[d.i] == ' ' || d.src[d.i] == '\t') {
		d.i++
	}
}

func (d *refDeserializer) expect(c byte) error {
	d.skipSpace()
	if d.i >= len(d.src) || d.src[d.i] != c {
		return fmt.Errorf("expected %q at %q", string(c), d.rest())
	}
	d.i++
	return nil
}

func (d *refDeserializer) rest() string {
	if d.i >= len(d.src) {
		return "<eol>"
	}
	r := d.src[d.i:]
	if len(r) > 24 {
		r = r[:24] + "..."
	}
	return r
}

func (d *refDeserializer) value(ty *Type) (*Value, error) {
	d.skipSpace()
	v := &Value{Type: ty, ResultOf: -1}
	switch ty.Kind {
	case KindInt, KindConst, KindFlags, KindLen:
		n, err := d.number()
		if err != nil {
			return nil, err
		}
		v.Scalar = n
		return v, nil
	case KindResource:
		if d.i < len(d.src) && d.src[d.i] == 'r' {
			d.i++
			n, err := d.number()
			if err != nil {
				return nil, err
			}
			// Reject forward and self references at parse time: a
			// resource can only use the result of an earlier call.
			// (number() already rejects negative-style refs like r-1.)
			if n >= uint64(d.calls) {
				return nil, fmt.Errorf("resource reference r%d out of range (only %d earlier calls)", n, d.calls)
			}
			v.ResultOf = int(n)
			return v, nil
		}
		if _, err := d.number(); err != nil {
			return nil, err
		}
		return v, nil // bad-fd sentinel
	case KindString:
		s, err := d.quoted()
		if err != nil {
			return nil, err
		}
		v.Data = []byte(s)
		return v, nil
	case KindBuffer:
		data, err := d.hexBlob()
		if err != nil {
			return nil, err
		}
		v.Data = data
		return v, nil
	case KindPtr:
		if d.i < len(d.src) && d.src[d.i] == '0' {
			if _, err := d.number(); err != nil {
				return nil, err
			}
			return v, nil // NULL
		}
		if err := d.expect('&'); err != nil {
			return nil, err
		}
		inner, err := d.value(ty.Elem)
		if err != nil {
			return nil, err
		}
		v.Ptr = inner
		return v, nil
	case KindStruct:
		if err := d.expect('{'); err != nil {
			return nil, err
		}
		for i := range ty.Fields {
			if i > 0 {
				if err := d.expect(','); err != nil {
					return nil, err
				}
			}
			f, err := d.value(ty.Fields[i].Type)
			if err != nil {
				return nil, err
			}
			v.Fields = append(v.Fields, f)
		}
		return v, d.expect('}')
	case KindUnion:
		if err := d.expect('@'); err != nil {
			return nil, err
		}
		idx, err := d.number()
		if err != nil {
			return nil, err
		}
		if int(idx) >= len(ty.Fields) {
			return nil, fmt.Errorf("union index %d out of range", idx)
		}
		v.UnionIdx = int(idx)
		if err := d.expect('{'); err != nil {
			return nil, err
		}
		f, err := d.value(ty.Fields[v.UnionIdx].Type)
		if err != nil {
			return nil, err
		}
		v.Fields = []*Value{f}
		return v, d.expect('}')
	case KindArray:
		if err := d.expect('['); err != nil {
			return nil, err
		}
		d.skipSpace()
		if ty.isRun() && ty.FixedLen > 0 {
			v.Data = make([]byte, 0, 8*ty.FixedLen)
		}
		for n := 0; d.i < len(d.src) && d.src[d.i] != ']'; n++ {
			if n > 0 {
				if err := d.expect(','); err != nil {
					return nil, err
				}
			}
			if ty.isRun() {
				x, err := d.number()
				if err != nil {
					return nil, err
				}
				v.Data = binary.LittleEndian.AppendUint64(v.Data, x)
			} else {
				f, err := d.value(ty.Elem)
				if err != nil {
					return nil, err
				}
				v.Fields = append(v.Fields, f)
			}
			d.skipSpace()
		}
		if err := d.expect(']'); err != nil {
			return nil, err
		}
		// Nothing but text builds a fixed array of another length, and
		// its payload would be short or long at every later offset.
		if n := v.elems(); ty.FixedLen >= 0 && n != ty.FixedLen {
			return nil, fmt.Errorf("array of %d elements, want %d", n, ty.FixedLen)
		}
		return v, nil
	}
	return nil, fmt.Errorf("unsupported type %v", ty)
}

func (d *refDeserializer) number() (uint64, error) {
	d.skipSpace()
	start := d.i
	if strings.HasPrefix(d.src[d.i:], "0x") {
		d.i += 2
		for d.i < len(d.src) && isHex(d.src[d.i]) {
			d.i++
		}
		v, err := strconv.ParseUint(d.src[start+2:d.i], 16, 64)
		return v, err
	}
	for d.i < len(d.src) && d.src[d.i] >= '0' && d.src[d.i] <= '9' {
		d.i++
	}
	if d.i == start {
		return 0, fmt.Errorf("expected number at %q", d.rest())
	}
	return strconv.ParseUint(d.src[start:d.i], 10, 64)
}

func (d *refDeserializer) quoted() (string, error) {
	d.skipSpace()
	if d.i >= len(d.src) || d.src[d.i] != '"' {
		return "", fmt.Errorf("expected string at %q", d.rest())
	}
	end := d.i + 1
	for end < len(d.src) {
		if d.src[end] == '\\' {
			end += 2
			continue
		}
		if d.src[end] == '"' {
			break
		}
		end++
	}
	if end >= len(d.src) {
		return "", fmt.Errorf("unterminated string")
	}
	s, err := strconv.Unquote(d.src[d.i : end+1])
	if err != nil {
		return "", err
	}
	d.i = end + 1
	return s, nil
}

func (d *refDeserializer) hexBlob() ([]byte, error) {
	if err := d.expect('#'); err != nil {
		return nil, err
	}
	start := d.i
	for d.i < len(d.src) && isHex(d.src[d.i]) {
		d.i++
	}
	hexText := d.src[start:d.i]
	if err := d.expect('#'); err != nil {
		return nil, err
	}
	if len(hexText)%2 != 0 {
		return nil, fmt.Errorf("odd hex blob length")
	}
	out := make([]byte, len(hexText)/2)
	for i := 0; i < len(out); i++ {
		hi, lo := unhex(hexText[2*i]), unhex(hexText[2*i+1])
		out[i] = hi<<4 | lo
	}
	return out, nil
}

// FuzzDeserializeMatchesReference holds the arena parser to the
// reference on any text, against the plumbed, value-shape and deep
// targets: the same accept/reject decision and error text, equal trees,
// and Canonical equal to the reference tree's rendering (with
// Deserialize's error when it has one).
func FuzzDeserializeMatchesReference(f *testing.F) {
	targets := []*Target{plumbedTarget(f), shapeTarget(f), deepTarget(f)}
	for i, tgt := range targets {
		g := NewGen(tgt, 37)
		for j := 0; j < 6; j++ {
			f.Add(g.Generate(2 + j + i).Serialize())
		}
	}
	f.Add("# comment\n\n  r+0 = openat$dm(4294967196, &\"/dev/mapper/control\", 2 , 0)\nioctl$DM_VERSION(r0, 0x0, 0x0)")
	f.Add("r0 = openat$shape(0xffffff9c, &\"\", 0x2, 0x0)\nwrite$shape(r0, ##, 0x0)\n")
	f.Add("r0 = openat$shape(0xffffff9c, &\"\\x00\\xff\\u00e9\\\"\\q\", 0x2, 0x0)\n")
	f.Add("r0 = openat$shape(0xffffff9c, &\"\xff = \t\", 0x2, 0x0)\nwrite$shape(r1, #0#, 0x0)\n")
	f.Add("r0 = openat$shape(0xffffff9c, &\"/dev/shape\", 0x2, 0x0)\n" +
		"ioctl$SHAPE(r0, 0x1, &{0x1, [{0x1, 0x2, []}, {0x3, 0x4, [0x5, 0x6]}], 0x8, @1{{0x7, 0x8, [0x9]}}, [[0x1, 0x2], []], 0x0})\n")
	f.Fuzz(func(t *testing.T, text string) {
		for _, tgt := range targets {
			checkDeserialize(t, tgt, text)
		}
	})
}

// checkDeserialize compares Deserialize and Canonical of text with the
// reference parser.
func checkDeserialize(t *testing.T, tgt *Target, text string) {
	t.Helper()
	want, wantErr := deserializeReference(tgt, text)
	got, err := Deserialize(tgt, text)
	canon, canonErr := Canonical(tgt, text)
	if wantErr != nil {
		if err == nil || canonErr == nil || err.Error() != wantErr.Error() || canonErr.Error() != wantErr.Error() {
			t.Fatalf("the reference refuses %q with %q; Deserialize: %v, Canonical: %v", text, wantErr, err, canonErr)
		}
		return
	}
	if err != nil || canonErr != nil {
		t.Fatalf("the reference accepts %q; Deserialize: %v, Canonical: %v", text, err, canonErr)
	}
	if !sameProg(got, want) {
		t.Fatalf("trees differ for %q:\ngot:\n%s\nwant:\n%s", text, got.Serialize(), want.Serialize())
	}
	if ref := serializeReference(want); canon != ref {
		t.Fatalf("Canonical(%q) = %q, the reference renders %q", text, canon, ref)
	}
}

// sameProg reports whether two programs are the same tree: the same
// syscalls, and per argument the same types, scalars, bytes, shape and
// bindings. An empty payload or member list equals a nil one (no
// reader tells them apart; copies through an arena make them nil).
func sameProg(a, b *Prog) bool {
	if len(a.Calls) != len(b.Calls) {
		return false
	}
	for i, c := range a.Calls {
		d := b.Calls[i]
		if c.Sc != d.Sc || len(c.Args) != len(d.Args) {
			return false
		}
		for j := range c.Args {
			if !sameValue(c.Args[j], d.Args[j]) {
				return false
			}
		}
	}
	return true
}

func sameValue(a, b *Value) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Type != b.Type || a.Scalar != b.Scalar || !bytes.Equal(a.Data, b.Data) || a.UnionIdx != b.UnionIdx ||
		a.ResultOf != b.ResultOf || len(a.Fields) != len(b.Fields) || !sameValue(a.Ptr, b.Ptr) {
		return false
	}
	for i := range a.Fields {
		if !sameValue(a.Fields[i], b.Fields[i]) {
			return false
		}
	}
	return true
}

// TestCanonicalAllocs is Canonical's budget: canonical text, the steady
// state of a hub push, is checked without allocating and returned as
// is; any other rendering of the program costs the returned string.
func TestCanonicalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	for _, tgt := range []*Target{deepTarget(t), plumbedTarget(t), shapeTarget(t)} {
		g := NewGen(tgt, 11)
		for i := 0; i < 8; i++ {
			text := g.Generate(2 + i).Serialize()
			sloppy := "# a comment\n" + strings.ReplaceAll(text, ", ", ",  ")
			// Canonical text comes back as the very string passed in.
			if got, err := Canonical(tgt, text); err != nil || unsafe.StringData(got) != unsafe.StringData(text) {
				t.Fatalf("Canonical of canonical text: %v, equal %v, not the string passed in", err, got == text)
			}
			if got, err := Canonical(tgt, sloppy); err != nil || got != text {
				t.Fatalf("Canonical of a sloppy rendering = %q, %v; want %q", got, err, text)
			}
			if n := testing.AllocsPerRun(20, func() { Canonical(tgt, text) }); n != 0 {
				t.Fatalf("Canonical of a %d-byte canonical text allocates %.0f times, want 0", len(text), n)
			}
			if n := testing.AllocsPerRun(20, func() { Canonical(tgt, sloppy) }); n != 1 {
				t.Fatalf("Canonical of a %d-byte sloppy text allocates %.0f times, want 1", len(sloppy), n)
			}
		}
	}
}

// TestDeserializeAllocs is Deserialize's budget: a program of dozens of
// values costs its arena, one presized slab per kind of part, not a
// node apiece.
func TestDeserializeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	tgt := deepTarget(t)
	g := NewGen(tgt, 5)
	checked := 0
	for i := 0; i < 40 && checked < 8; i++ {
		p := g.Generate(3 + i%4)
		nodes := 0
		for _, c := range p.Calls {
			c.ForEachValue(func(*Value) { nodes++ })
		}
		if nodes < 50 {
			continue
		}
		checked++
		text := p.Serialize()
		if n := testing.AllocsPerRun(20, func() { Deserialize(tgt, text) }); n > 6 {
			t.Fatalf("Deserialize of a %d-value program allocates %.0f times, want at most 6", nodes, n)
		}
	}
	if checked == 0 {
		t.Fatal("no generated program held 50 values")
	}
}
