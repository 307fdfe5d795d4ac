package ccode

import (
	"fmt"
	"strings"
)

// Linux _IOC encoding constants (include/uapi/asm-generic/ioctl.h).
const (
	iocNrBits   = 8
	iocTypeBits = 8
	iocSizeBits = 14

	iocNrShift   = 0
	iocTypeShift = iocNrShift + iocNrBits
	iocSizeShift = iocTypeShift + iocTypeBits
	iocDirShift  = iocSizeShift + iocSizeBits

	iocNone  = 0
	iocWrite = 1
	iocRead  = 2
)

// IOC computes the Linux _IOC(dir,type,nr,size) command encoding.
func IOC(dir, typ, nr, size uint64) uint64 {
	return dir<<iocDirShift | typ<<iocTypeShift | nr<<iocNrShift | size<<iocSizeShift
}

// IOCNr extracts the nr field of an encoded ioctl command, i.e. the
// kernel's _IOC_NR macro — the identifier modification the paper's
// device-mapper example hinges on.
func IOCNr(cmd uint64) uint64 { return (cmd >> iocNrShift) & (1<<iocNrBits - 1) }

// IOCSize extracts the size field of an encoded ioctl command.
func IOCSize(cmd uint64) uint64 { return (cmd >> iocSizeShift) & (1<<iocSizeBits - 1) }

// IOCDir extracts the dir field of an encoded ioctl command.
func IOCDir(cmd uint64) uint64 { return (cmd >> iocDirShift) & 3 }

// SizeofType returns the byte size of a C scalar type name, or 0 if
// unknown.
func SizeofType(typ string) int {
	typ = strings.TrimSpace(typ)
	if strings.Contains(typ, "*") {
		return 8
	}
	switch strings.TrimPrefix(strings.TrimPrefix(typ, "unsigned "), "signed ") {
	case "char", "__u8", "__s8", "u8", "s8", "uint8_t", "int8_t", "bool":
		return 1
	case "short", "__u16", "__s16", "u16", "s16", "uint16_t", "int16_t":
		return 2
	case "int", "__u32", "__s32", "u32", "s32", "uint32_t", "int32_t", "unsigned", "__le32", "__be32":
		return 4
	case "long", "long long", "__u64", "__s64", "u64", "s64", "uint64_t",
		"int64_t", "size_t", "ssize_t", "loff_t", "__le64", "__be64":
		return 8
	}
	return 0
}

// Sizeof computes the size of "struct X"/"union X" or a scalar type,
// applying natural alignment. Returns 0 for unknown types (including
// flexible arrays, which contribute no size).
func (ix *Index) Sizeof(typ string) int {
	return ix.sizeofSeen(typ, map[string]bool{})
}

func (ix *Index) sizeofSeen(typ string, seen map[string]bool) int {
	typ = strings.TrimSpace(typ)
	if rest, ok := strings.CutPrefix(typ, "struct "); ok {
		return ix.sizeofComposite(strings.TrimSpace(rest), false, seen)
	}
	if rest, ok := strings.CutPrefix(typ, "union "); ok {
		return ix.sizeofComposite(strings.TrimSpace(rest), true, seen)
	}
	if s := ix.Structs[typ]; s != nil {
		return ix.sizeofComposite(typ, s.Union, seen)
	}
	return SizeofType(typ)
}

func (ix *Index) sizeofComposite(name string, union bool, seen map[string]bool) int {
	st := ix.Structs[name]
	if st == nil || seen[name] {
		return 0
	}
	seen[name] = true
	defer delete(seen, name)
	size, maxAlign, maxField := 0, 1, 0
	for _, f := range st.Fields {
		fs := ix.fieldSize(f, seen)
		al := ix.fieldAlign(f, seen)
		flexible := f.IsArray && strings.TrimSpace(f.Array) == ""
		if fs == 0 && !flexible {
			continue // unknown type
		}
		// Flexible array members contribute no size but do
		// contribute alignment and any padding before them (C11
		// semantics: sizeof(struct {int a; long long b[];}) == 8).
		if al > maxAlign {
			maxAlign = al
		}
		if union || st.Union {
			if fs > maxField {
				maxField = fs
			}
			continue
		}
		if rem := size % al; rem != 0 {
			size += al - rem
		}
		size += fs
	}
	if union || st.Union {
		size = maxField
	}
	if rem := size % maxAlign; rem != 0 {
		size += maxAlign - rem
	}
	return size
}

func (ix *Index) fieldSize(f StructField, seen map[string]bool) int {
	base := ix.sizeofSeen(f.Type, seen)
	if !f.IsArray {
		return base
	}
	if strings.TrimSpace(f.Array) == "" {
		return 0 // flexible array member
	}
	n, ok := ix.EvalInt(f.Array)
	if !ok {
		return 0
	}
	return base * int(n)
}

func (ix *Index) fieldAlign(f StructField, seen map[string]bool) int {
	a := ix.sizeofSeen(f.Type, seen)
	if st, ok := strings.CutPrefix(strings.TrimSpace(f.Type), "struct "); ok {
		name := strings.TrimSpace(st)
		if s := ix.Structs[name]; s != nil && !seen[name] {
			seen[name] = true
			a = 1
			for _, sf := range s.Fields {
				if fa := ix.fieldAlign(sf, seen); fa > a {
					a = fa
				}
			}
			delete(seen, name)
		}
	}
	if a == 0 || a > 8 {
		a = 8
	}
	return a
}

// EvalString evaluates a macro/expression to a string value, handling
// string literal concatenation like `DM_DIR "/" DM_CONTROL_NODE`.
func (ix *Index) EvalString(expr string) (string, bool) {
	return ix.evalStringDepth(expr, 0)
}

func (ix *Index) evalStringDepth(expr string, rdepth int) (string, bool) {
	if rdepth > maxMacroDepth {
		return "", false
	}
	var b strings.Builder
	any := false
	sc := scanner{src: expr, line: 1}
	var t CToken
	for sc.next(&t) {
		switch t.Kind {
		case CString:
			b.WriteString(StringValue(t.Text))
			any = true
		case CIdent:
			m := ix.Macros[t.Text]
			if m == nil {
				return "", false
			}
			s, ok := ix.evalStringDepth(m.Value, rdepth+1)
			if !ok {
				return "", false
			}
			b.WriteString(s)
			any = true
		case CComment:
		default:
			return "", false
		}
	}
	return b.String(), any
}

// EvalInt evaluates an integer C constant expression: literals, macro
// names, enum values, _IO/_IOR/_IOW/_IOWR invocations, sizeof(...),
// parentheses, |, +, -, << and char constants.
func (ix *Index) EvalInt(expr string) (uint64, bool) {
	return ix.evalIntDepth(expr, 0)
}

const maxMacroDepth = 16

func (ix *Index) evalIntDepth(expr string, rdepth int) (uint64, bool) {
	if rdepth > maxMacroDepth {
		return 0, false
	}
	buf := lexPooled(expr)
	defer release(buf)
	e := &evaluator{ix: ix, toks: dropComments(*buf), rdepth: rdepth}
	v, ok := e.expr(0)
	if !ok || e.i != len(e.toks) {
		return 0, false
	}
	return v, true
}

// dropComments filters toks in place.
func dropComments(toks []CToken) []CToken {
	out := toks[:0]
	for _, t := range toks {
		if t.Kind != CComment {
			out = append(out, t)
		}
	}
	return out
}

type evaluator struct {
	ix     *Index
	toks   []CToken
	i      int
	depth  int
	rdepth int // macro-expansion recursion depth
}

const maxEvalDepth = 32

func (e *evaluator) peek() CToken {
	if e.i >= len(e.toks) {
		return CToken{Kind: CEOF}
	}
	return e.toks[e.i]
}

// expr parses binary expressions with a tiny precedence ladder:
// 0: '|'  1: '+' '-'  2: '<<' '>>'  3: primary.
func (e *evaluator) expr(prec int) (uint64, bool) {
	if prec >= 3 {
		return e.primary()
	}
	left, ok := e.expr(prec + 1)
	if !ok {
		return 0, false
	}
	for {
		t := e.peek()
		if t.Kind != CPunct {
			return left, true
		}
		var apply func(a, b uint64) uint64
		switch {
		case prec == 0 && t.Text == "|":
			apply = func(a, b uint64) uint64 { return a | b }
		case prec == 1 && t.Text == "+":
			apply = func(a, b uint64) uint64 { return a + b }
		case prec == 1 && t.Text == "-":
			apply = func(a, b uint64) uint64 { return a - b }
		case prec == 2 && t.Text == "<<":
			apply = func(a, b uint64) uint64 { return a << b }
		case prec == 2 && t.Text == ">>":
			apply = func(a, b uint64) uint64 { return a >> b }
		default:
			return left, true
		}
		e.i++
		right, ok := e.expr(prec + 1)
		if !ok {
			return 0, false
		}
		left = apply(left, right)
	}
}

func (e *evaluator) primary() (uint64, bool) {
	if e.depth++; e.depth > maxEvalDepth {
		return 0, false
	}
	defer func() { e.depth-- }()
	t := e.peek()
	switch t.Kind {
	case CNumber:
		e.i++
		return parseCInt(t.Text)
	case CChar:
		e.i++
		s := StringValue(strings.Trim(t.Text, "'"))
		if len(s) == 0 {
			return 0, false
		}
		return uint64(s[0]), true
	case CPunct:
		if t.Text == "(" {
			e.i++
			v, ok := e.expr(0)
			if !ok || e.peek().Text != ")" {
				return 0, false
			}
			e.i++
			return v, true
		}
		return 0, false
	case CIdent:
		return e.identPrimary(t)
	}
	return 0, false
}

func (e *evaluator) identPrimary(t CToken) (uint64, bool) {
	e.i++
	switch t.Text {
	case "sizeof":
		return e.sizeofCall()
	case "_IO", "_IOR", "_IOW", "_IOWR", "_IOC":
		return e.iocCall(t.Text)
	case "struct", "union":
		// e.g. appears inside sizeof handled above; bare is invalid.
		return 0, false
	}
	// Named constant: macro or enum value.
	if v, ok := e.ix.EnumVals[t.Text]; ok {
		return v, true
	}
	if m := e.ix.Macros[t.Text]; m != nil && len(m.Params) == 0 {
		return e.ix.evalIntDepth(m.Value, e.rdepth+1)
	}
	return 0, false
}

func (e *evaluator) sizeofCall() (uint64, bool) {
	if e.peek().Text != "(" {
		return 0, false
	}
	e.i++
	start := e.i
	for e.peek().Text != ")" && e.peek().Kind != CEOF {
		e.i++
	}
	if e.peek().Text != ")" {
		return 0, false
	}
	size := e.ix.Sizeof(joinTexts(e.toks[start:e.i], true))
	e.i++
	if size == 0 {
		return 0, false
	}
	return uint64(size), true
}

// iocCall evaluates _IO/_IOR/_IOW/_IOWR(type, nr[, arg-type]).
func (e *evaluator) iocCall(name string) (uint64, bool) {
	if e.peek().Text != "(" {
		return 0, false
	}
	args, ok := e.splitArgs()
	if !ok {
		return 0, false
	}
	var dir uint64
	wantArgs := 2
	switch name {
	case "_IO":
		dir = iocNone
	case "_IOR":
		dir, wantArgs = iocRead, 3
	case "_IOW":
		dir, wantArgs = iocWrite, 3
	case "_IOWR":
		dir, wantArgs = iocRead|iocWrite, 3
	case "_IOC":
		wantArgs = 4
	}
	if len(args) != wantArgs {
		return 0, false
	}
	if name == "_IOC" {
		d, ok1 := e.ix.evalIntDepth(args[0], e.rdepth+1)
		typ, ok2 := e.ix.evalIntDepth(args[1], e.rdepth+1)
		nr, ok3 := e.ix.evalIntDepth(args[2], e.rdepth+1)
		size, ok4 := e.ix.evalIntDepth(args[3], e.rdepth+1)
		if !(ok1 && ok2 && ok3 && ok4) {
			return 0, false
		}
		return IOC(d, typ, nr, size), true
	}
	typ, ok := e.ix.evalIntDepth(args[0], e.rdepth+1)
	if !ok {
		return 0, false
	}
	nr, ok := e.ix.evalIntDepth(args[1], e.rdepth+1)
	if !ok {
		return 0, false
	}
	var size uint64
	if wantArgs == 3 {
		sz := e.ix.Sizeof(args[2])
		if sz == 0 {
			return 0, false
		}
		size = uint64(sz)
	}
	return IOC(dir, typ, nr, size), true
}

// splitArgs consumes "( a, b, c )" starting at '(' and returns the
// raw argument texts.
func (e *evaluator) splitArgs() ([]string, bool) {
	if e.peek().Text != "(" {
		return nil, false
	}
	e.i++
	var args []string
	start, depth := e.i, 0
	for {
		t := e.peek()
		if t.Kind == CEOF {
			return nil, false
		}
		if t.Kind == CPunct {
			switch t.Text {
			case "(":
				depth++
			case ")":
				if depth == 0 {
					if e.i > start {
						args = append(args, joinTexts(e.toks[start:e.i], true))
					}
					e.i++
					return args, true
				}
				depth--
			case ",":
				if depth == 0 {
					args = append(args, joinTexts(e.toks[start:e.i], true))
					start = e.i + 1
				}
			}
		}
		e.i++
	}
}

// ResolveMacroInt evaluates the named macro to an integer.
func (ix *Index) ResolveMacroInt(name string) (uint64, bool) {
	if v, ok := ix.EnumVals[name]; ok {
		return v, true
	}
	m := ix.Macros[name]
	if m == nil {
		return 0, false
	}
	return ix.EvalInt(m.Value)
}

// ConstTable builds a name→value map of every macro and enum value
// that evaluates to an integer — the equivalent of running
// syz-extract over the kernel tree to obtain the constants file
// consumed by syzlang validation.
func (ix *Index) ConstTable() map[string]uint64 {
	out := make(map[string]uint64, len(ix.Macros)+len(ix.EnumVals))
	for name, v := range ix.EnumVals {
		out[name] = v
	}
	for name, m := range ix.Macros {
		if len(m.Params) > 0 {
			continue
		}
		if v, ok := ix.EvalInt(m.Value); ok {
			out[name] = v
		}
	}
	return out
}

// String renders a registration for diagnostics.
func (r *Registration) String() string {
	return fmt.Sprintf("struct %s %s = {%d fields} (%s)", r.StructType, r.VarName, len(r.Fields), r.File)
}
