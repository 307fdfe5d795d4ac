package prog

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// Program text serialization, in the spirit of Syzkaller's repro
// format: one call per line,
//
//	r0 = openat$dm(0xffffff9c, &"/dev/mapper/control", 0x2, 0x0)
//	ioctl$DM_LIST_VERSIONS(r0, 0xc0c0fd0d, &{0x0, 0xffffffff, ...})
//
// Serialize/Deserialize round-trip exactly, which lets crash repros
// travel between the fuzzer, files on disk, and the syzfuzz -repro
// flag.

// Serialize renders the program as repro text. The text is written
// into a pooled buffer and copied out once, so the returned string is
// the only allocation.
func (p *Prog) Serialize() string {
	buf := textBufs.Get().(*[]byte)
	*buf = p.appendText((*buf)[:0])
	text := string(*buf)
	if cap(*buf) <= maxPooledText {
		textBufs.Put(buf)
	}
	return text
}

// textBufs recycles Serialize's write buffers; one larger than
// maxPooledText (a program far beyond any the generator builds) is
// left to the collector instead of being kept.
var textBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledText = 64 << 10

// appendText appends the program's repro text to dst.
func (p *Prog) appendText(dst []byte) []byte {
	for i, c := range p.Calls {
		if c.Sc.Ret != "" {
			dst = append(dst, 'r')
			dst = strconv.AppendInt(dst, int64(i), 10)
			dst = append(dst, " = "...)
		}
		dst = append(dst, c.Sc.Name...)
		dst = append(dst, '(')
		for j, a := range c.Args {
			if j > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendValue(dst, a)
		}
		dst = append(dst, ")\n"...)
	}
	return dst
}

func appendValue(dst []byte, v *Value) []byte {
	if v == nil {
		return append(dst, "nil"...)
	}
	switch v.Type.Kind {
	case KindInt, KindConst, KindFlags, KindLen:
		return appendHex(dst, v.Scalar)
	case KindResource:
		if v.ResultOf >= 0 {
			dst = append(dst, 'r')
			return strconv.AppendInt(dst, int64(v.ResultOf), 10)
		}
		return append(dst, "0xffffffffffffffff"...)
	case KindString:
		// AppendQuote keeps nothing of its argument, so the bytes are
		// read in place rather than copied into a string first.
		return strconv.AppendQuote(dst, unsafe.String(unsafe.SliceData(v.Data), len(v.Data)))
	case KindBuffer:
		const hexdigits = "0123456789abcdef"
		dst = append(dst, '#')
		for _, c := range v.Data {
			dst = append(dst, hexdigits[c>>4], hexdigits[c&0xf])
		}
		return append(dst, '#')
	case KindPtr:
		if v.Ptr == nil {
			return append(dst, "0x0"...)
		}
		return appendValue(append(dst, '&'), v.Ptr)
	case KindStruct:
		return append(appendValues(append(dst, '{'), v.Fields), '}')
	case KindUnion:
		dst = append(dst, '@')
		dst = strconv.AppendInt(dst, int64(v.UnionIdx), 10)
		dst = append(dst, '{')
		if len(v.Fields) > 0 {
			dst = appendValue(dst, v.Fields[0])
		}
		return append(dst, '}')
	case KindArray:
		dst = append(dst, '[')
		if v.Type.isRun() {
			for i := range v.RunLen() {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = appendHex(dst, v.RunElem(i))
			}
		} else {
			dst = appendValues(dst, v.Fields)
		}
		return append(dst, ']')
	default:
		return append(dst, '?')
	}
}

// appendValues appends values separated by ", ".
func appendValues(dst []byte, vals []*Value) []byte {
	for i, f := range vals {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendValue(dst, f)
	}
	return dst
}

// appendHex appends x as 0x-prefixed lowercase hex.
func appendHex(dst []byte, x uint64) []byte {
	return strconv.AppendUint(append(dst, "0x"...), x, 16)
}

// Deserialize parses repro text back into a program against the
// target. Unknown syscalls or malformed values are errors (a repro is
// useless if reinterpreted loosely). The text is parsed into a pooled
// scratch arena and the program copied out of it once, into an arena
// of its own sized to fit (the path Clone takes): a handful of
// allocations per program, however many values it holds.
func Deserialize(t *Target, text string) (*Prog, error) {
	d := deserializers.Get().(*deserializer)
	defer d.release(text)
	p, err := d.parse(t, text)
	if err != nil {
		return nil, err
	}
	a := new(arena)
	a.reserve(p, false)
	return a.cloneProg(p, false), nil
}

// Canonical returns the canonical rendering of program text, what
// Serialize gives for the program Deserialize builds from it, with
// Deserialize's errors. Canonical text is returned as is, and the check
// allocates nothing; other text costs the one new string. It is the
// form for a holder of text that needs no program: the hub names,
// stores and serves seeds by it.
func Canonical(t *Target, text string) (string, error) {
	d := deserializers.Get().(*deserializer)
	defer d.release(text)
	p, err := d.parse(t, text)
	if err != nil {
		return "", err
	}
	buf := textBufs.Get().(*[]byte)
	*buf = p.appendText((*buf)[:0])
	if string(*buf) != text {
		text = string(*buf)
	}
	if cap(*buf) <= maxPooledText {
		textBufs.Put(buf)
	}
	return text, nil
}

// deserializers recycles parsers with their scratch arenas.
var deserializers = sync.Pool{New: func() any { return new(deserializer) }}

// deserializer parses program text into its own scratch arena, rewound
// at every parse; what it builds is valid until its next parse. A
// failed parse may leave entries on its stacks; the next parse empties
// them.
type deserializer struct {
	a arena
	// elems and buf are stacks the open arrays push onto: the element
	// nodes of arrays that are not runs, and the elements of a run (or
	// the bytes of the string being unquoted). A closed array's share
	// is copied into the arena at its exact size and popped.
	elems []*Value
	buf   []byte
	// src is the argument list of the call line being parsed and i the
	// read position in it.
	src string
	i   int
	// calls is the number of calls parsed before this line; a
	// resource reference rN is only valid for N < calls.
	calls int
}

// release returns d to the pool, unless text was one far beyond any
// the generator builds: its arena is left to the collector instead.
func (d *deserializer) release(text string) {
	if len(text) <= maxPooledText {
		deserializers.Put(d)
	}
}

// parse builds and validates the program text describes.
func (d *deserializer) parse(t *Target, text string) (*Prog, error) {
	d.a.reset()
	d.elems, d.buf = d.elems[:0], d.buf[:0]
	p := d.a.newProg(0, true)
	rest := text
	for lineNo := 1; ; lineNo++ {
		line, tail, more := strings.Cut(rest, "\n")
		if line = strings.TrimSpace(line); line != "" && line[0] != '#' {
			call, err := d.callLine(t, p, line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			p.Calls = d.a.appendCall(p.Calls, call)
		}
		if !more {
			break
		}
		rest = tail
	}
	if err := p.Validate(t); err != nil {
		return nil, err
	}
	return p, nil
}

func (d *deserializer) callLine(t *Target, p *Prog, line string) (*Call, error) {
	// Optional "rN = " prefix.
	if eq := strings.Index(line, " = "); eq > 0 && line[0] == 'r' {
		if n, ok := atoi(line[1:eq]); ok {
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
	d.src, d.i, d.calls = line[open+1:len(line)-1], 0, len(p.Calls)
	call := d.a.call(sc, len(sc.Args))
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
		call.Args[i] = v
	}
	d.skipSpace()
	if d.i < len(d.src) {
		return nil, fmt.Errorf("trailing garbage %q", d.src[d.i:])
	}
	return call, nil
}

// atoi is strconv.Atoi without the error value: text that is not a
// signed decimal is refused before Atoi is asked, so a line whose
// " = " sits in a string literal costs no allocation.
func atoi(s string) (int, bool) {
	digits := s
	if digits != "" && (digits[0] == '+' || digits[0] == '-') {
		digits = digits[1:]
	}
	if digits == "" || strings.TrimLeft(digits, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

func (d *deserializer) skipSpace() {
	for d.i < len(d.src) && (d.src[d.i] == ' ' || d.src[d.i] == '\t') {
		d.i++
	}
}

func (d *deserializer) expect(c byte) error {
	d.skipSpace()
	if d.i >= len(d.src) || d.src[d.i] != c {
		return fmt.Errorf("expected %q at %q", string(c), d.rest())
	}
	d.i++
	return nil
}

func (d *deserializer) rest() string {
	if d.i >= len(d.src) {
		return "<eol>"
	}
	r := d.src[d.i:]
	if len(r) > 24 {
		r = r[:24] + "..."
	}
	return r
}

// value parses one value of type ty into the arena.
func (d *deserializer) value(ty *Type) (*Value, error) {
	d.skipSpace()
	v := d.a.node()
	*v = Value{Type: ty, ResultOf: -1}
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
		data, err := d.quoted()
		if err != nil {
			return nil, err
		}
		v.Data = data
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
		v.Fields = d.a.fields(len(ty.Fields))
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
			v.Fields[i] = f
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
		v.Fields = d.a.fields(1)
		v.Fields[0] = f
		return v, d.expect('}')
	case KindArray:
		if err := d.expect('['); err != nil {
			return nil, err
		}
		d.skipSpace()
		elems, data := len(d.elems), len(d.buf)
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
				d.buf = binary.LittleEndian.AppendUint64(d.buf, x)
			} else {
				f, err := d.value(ty.Elem)
				if err != nil {
					return nil, err
				}
				d.elems = append(d.elems, f)
			}
			d.skipSpace()
		}
		if err := d.expect(']'); err != nil {
			return nil, err
		}
		v.Fields = d.a.fields(len(d.elems) - elems)
		copy(v.Fields, d.elems[elems:])
		d.elems = d.elems[:elems]
		v.Data = d.popBytes(data)
		// Nothing but text builds a fixed array of another length, and
		// its payload would be short or long at every later offset.
		if n := v.elems(); ty.FixedLen >= 0 && n != ty.FixedLen {
			return nil, fmt.Errorf("array of %d elements, want %d", n, ty.FixedLen)
		}
		return v, nil
	}
	return nil, fmt.Errorf("unsupported type %v", ty)
}

// popBytes moves buf[from:] into the arena and pops it off buf.
func (d *deserializer) popBytes(from int) []byte {
	out := d.a.bytes(len(d.buf) - from)
	copy(out, d.buf[from:])
	d.buf = d.buf[:from]
	return out
}

func (d *deserializer) number() (uint64, error) {
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

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// quoted parses a double-quoted string literal into the arena. It
// accepts exactly what strconv.Unquote accepts of the literal, decodes
// it the same way, and fails with the same ErrSyntax.
func (d *deserializer) quoted() ([]byte, error) {
	d.skipSpace()
	if d.i >= len(d.src) || d.src[d.i] != '"' {
		return nil, fmt.Errorf("expected string at %q", d.rest())
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
		return nil, fmt.Errorf("unterminated string")
	}
	from := len(d.buf)
	in := d.src[d.i+1 : end+1]
	for len(in) > 0 && in[0] != '"' {
		r, multibyte, rest, err := strconv.UnquoteChar(in, '"')
		if in[0] == '\n' || err != nil {
			return nil, strconv.ErrSyntax
		}
		in = rest
		if r < utf8.RuneSelf || !multibyte {
			d.buf = append(d.buf, byte(r))
		} else {
			d.buf = utf8.AppendRune(d.buf, r)
		}
	}
	if len(in) != 1 {
		return nil, strconv.ErrSyntax
	}
	d.i = end + 1
	return d.popBytes(from), nil
}

// hexBlob parses a #hex# buffer literal into the arena.
func (d *deserializer) hexBlob() ([]byte, error) {
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
	out := d.a.bytes(len(hexText) / 2)
	for i := range out {
		hi, lo := unhex(hexText[2*i]), unhex(hexText[2*i+1])
		out[i] = hi<<4 | lo
	}
	return out, nil
}

func unhex(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}
