package syzlang

import (
	"errors"
	"fmt"
	"strings"
)

// ParseError is a structured syntax error with source position.
type ParseError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// parser pulls tokens straight from the lexer with one token of
// lookahead, so no token sequence is ever materialised.
type parser struct {
	lex  *Lexer
	tok  Token // the lookahead
	errs []error
	file *File
}

func newParser(src string) *parser {
	p := &parser{lex: NewLexer(src), file: &File{}}
	p.advance()
	return p
}

// advance loads the next lookahead. End of input carries no position,
// so errors raised there read "0:0: ... got EOF".
func (p *parser) advance() {
	if p.tok = p.lex.Next(); p.tok.Kind == TokEOF {
		p.tok = Token{Kind: TokEOF}
	}
}

// Parse parses syzlang source into a File. On syntax errors it
// recovers to the next line and keeps parsing so that as many errors
// as possible are reported in one pass (this mirrors syz-extract,
// whose batch error output drives the paper's repair loop).
func Parse(src string) (*File, []error) {
	p := newParser(src)
	p.parseFile()
	// parseFile runs to EOF, so every lexical error is in by now; they
	// are reported first, as a batch.
	if lexErrs := p.lex.Errors(); len(lexErrs) > 0 {
		return p.file, append(lexErrs[:len(lexErrs):len(lexErrs)], p.errs...)
	}
	return p.file, p.errs
}

// MustParse parses src and panics on any error; intended for trusted
// built-in descriptions and tests.
func MustParse(src string) *File {
	f, errs := Parse(src)
	if len(errs) > 0 {
		panic(errors.Join(errs...))
	}
	return f
}

func (p *parser) peek() Token { return p.tok }

func (p *parser) next() Token {
	t := p.tok
	if t.Kind != TokEOF {
		p.advance()
	}
	return t
}

func (p *parser) at(k TokenKind) bool { return p.peek().Kind == k }

func (p *parser) accept(k TokenKind) (Token, bool) {
	if p.at(k) {
		return p.next(), true
	}
	return Token{}, false
}

func (p *parser) expect(k TokenKind) Token {
	t := p.peek()
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, got %s %q", k, t.Kind, t.Text)
		return Token{Kind: k, Pos: t.Pos}
	}
	return p.next()
}

func (p *parser) errorf(pos Pos, format string, args ...any) {
	p.errs = append(p.errs, &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// syncLine skips tokens until after the next newline, for error
// recovery.
func (p *parser) syncLine() {
	for {
		t := p.next()
		if t.Kind == TokNewline || t.Kind == TokEOF {
			return
		}
	}
}

func (p *parser) parseFile() {
	for {
		switch t := p.peek(); t.Kind {
		case TokEOF:
			return
		case TokNewline:
			p.next()
		case TokIdent:
			p.parseTopLevel()
		default:
			p.errorf(t.Pos, "unexpected %s %q at top level", t.Kind, t.Text)
			p.syncLine()
		}
	}
}

func (p *parser) parseTopLevel() {
	ident := p.next() // TokIdent
	switch {
	case ident.Text == "resource":
		p.parseResource(ident.Pos)
	case p.at(TokLBrace):
		p.parseStruct(ident)
	case p.at(TokEquals):
		p.parseFlags(ident)
	case p.at(TokLParen) || p.at(TokDollar):
		p.parseSyscall(ident)
	case p.at(TokLBrack):
		// Could be a union "name [" — but "name [" is also how a
		// struct-with-attrs line ends; unions are "name [\n fields ]".
		p.parseUnion(ident)
	default:
		p.errorf(ident.Pos, "cannot parse declaration starting with %q", ident.Text)
		p.syncLine()
	}
}

// parseResource handles: resource name[base]
func (p *parser) parseResource(pos Pos) {
	name := p.expect(TokIdent)
	p.expect(TokLBrack)
	base := p.expect(TokIdent)
	p.expect(TokRBrack)
	p.endLine()
	p.file.Resources = append(p.file.Resources, &ResourceDef{
		Name: name.Text, Base: base.Text, Pos: pos,
	})
}

// parseSyscall handles: call[$variant](arg type, ...) [ret]
func (p *parser) parseSyscall(callTok Token) {
	def := &SyscallDef{CallName: callTok.Text, Pos: callTok.Pos}
	if _, ok := p.accept(TokDollar); ok {
		v := p.expect(TokIdent)
		def.Variant = v.Text
	}
	p.expect(TokLParen)
	var buf [maxSyscallArgs]*Field
	args := buf[:0]
	for !p.at(TokRParen) && !p.at(TokEOF) && !p.at(TokNewline) {
		f := p.parseField()
		if f == nil {
			break
		}
		args = append(args, f)
		if _, ok := p.accept(TokComma); !ok {
			break
		}
	}
	def.Args = exactFields(args)
	p.expect(TokRParen)
	if t, ok := p.accept(TokIdent); ok {
		def.Ret = t.Text
	}
	p.endLine()
	p.file.Syscalls = append(p.file.Syscalls, def)
}

// parseField parses "name type" with optional trailing attributes.
func (p *parser) parseField() *Field {
	name := p.peek()
	if name.Kind != TokIdent {
		p.errorf(name.Pos, "expected field name, got %s %q", name.Kind, name.Text)
		p.syncLine()
		return nil
	}
	p.next()
	// A field and its type are one allocation.
	ft := &struct {
		f  Field
		te TypeExpr
	}{}
	if !p.parseTypeExprInto(&ft.te) {
		return nil
	}
	ft.f = Field{Name: name.Text, Type: &ft.te, Pos: name.Pos}
	f := &ft.f
	// Optional attribute list: (out), (in, out), ...
	if p.at(TokLParen) {
		p.next()
		for !p.at(TokRParen) && !p.at(TokEOF) && !p.at(TokNewline) {
			a := p.expect(TokIdent)
			f.Attrs = append(f.Attrs, a.Text)
			if _, ok := p.accept(TokComma); !ok {
				break
			}
		}
		p.expect(TokRParen)
	}
	return f
}

// parseTypeExpr parses ident[args...] where args recurse.
func (p *parser) parseTypeExpr() *TypeExpr {
	te := new(TypeExpr)
	if !p.parseTypeExprInto(te) {
		return nil
	}
	return te
}

// parseTypeExprInto is parseTypeExpr into te, reporting whether there
// was a type to parse.
func (p *parser) parseTypeExprInto(te *TypeExpr) bool {
	t := p.peek()
	if t.Kind != TokIdent {
		p.errorf(t.Pos, "expected type, got %s %q", t.Kind, t.Text)
		p.syncLine()
		return false
	}
	p.next()
	*te = TypeExpr{Ident: t.Text, Pos: t.Pos}
	if !p.at(TokLBrack) {
		return true
	}
	p.next() // '['
	// The arguments are parsed into a buffer on the stack and copied
	// off at their exact length.
	var buf [4]TypeArg
	args := buf[:0]
	for !p.at(TokRBrack) && !p.at(TokEOF) && !p.at(TokNewline) {
		arg, ok := p.parseTypeArg()
		if !ok {
			te.Args = exactArgs(args)
			return true
		}
		args = append(args, arg)
		if _, ok := p.accept(TokComma); !ok {
			break
		}
	}
	te.Args = exactArgs(args)
	p.expect(TokRBrack)
	return true
}

func (p *parser) parseTypeArg() (TypeArg, bool) {
	t := p.peek()
	switch t.Kind {
	case TokInt:
		p.next()
		// Range: INT ':' INT
		if p.at(TokColon) {
			p.next()
			hi := p.expect(TokInt)
			return TypeArg{HasRange: true, Min: int64(t.Value), Max: int64(hi.Value), Pos: t.Pos}, true
		}
		return TypeArg{HasInt: true, Int: t.Value, Pos: t.Pos}, true
	case TokString:
		p.next()
		return TypeArg{HasStr: true, Str: t.Text, Pos: t.Pos}, true
	case TokIdent:
		te := p.parseTypeExpr()
		if te == nil {
			return TypeArg{}, false
		}
		return TypeArg{Type: te, Pos: t.Pos}, true
	}
	p.errorf(t.Pos, "expected type argument, got %s %q", t.Kind, t.Text)
	p.syncLine()
	return TypeArg{}, false
}

// exactArgs copies parsed arguments to an exact-length list whose
// arguments share one allocation (nil for none).
func exactArgs(parsed []TypeArg) []*TypeArg {
	if len(parsed) == 0 {
		return nil
	}
	vals := make([]TypeArg, len(parsed))
	copy(vals, parsed)
	args := make([]*TypeArg, len(parsed))
	for i := range vals {
		args[i] = &vals[i]
	}
	return args
}

// exactFields copies parsed fields to an exact-length list (nil for
// none).
func exactFields(parsed []*Field) []*Field {
	if len(parsed) == 0 {
		return nil
	}
	return append([]*Field(nil), parsed...)
}

// parseStruct handles:
//
//	name {
//		field type
//		...
//	} [attrs]
func (p *parser) parseStruct(nameTok Token) {
	p.expect(TokLBrace)
	p.endLine()
	def := &StructDef{Name: nameTok.Text, Pos: nameTok.Pos}
	var buf [16]*Field
	fields := buf[:0]
	for !p.at(TokRBrace) && !p.at(TokEOF) {
		if _, ok := p.accept(TokNewline); ok {
			continue
		}
		if f := p.parseField(); f != nil {
			fields = append(fields, f)
		}
		p.endLine()
	}
	def.Fields = exactFields(fields)
	p.expect(TokRBrace)
	// Optional trailing attributes: [packed], [align[8]], ...
	if p.at(TokLBrack) {
		p.next()
		for !p.at(TokRBrack) && !p.at(TokEOF) && !p.at(TokNewline) {
			a := p.parseTypeExpr()
			if a == nil {
				break
			}
			def.Attrs = append(def.Attrs, a.String())
			if _, ok := p.accept(TokComma); !ok {
				break
			}
		}
		p.expect(TokRBrack)
	}
	p.endLine()
	p.file.Structs = append(p.file.Structs, def)
}

// parseUnion handles:
//
//	name [
//		field type
//		...
//	]
func (p *parser) parseUnion(nameTok Token) {
	p.expect(TokLBrack)
	p.endLine()
	def := &UnionDef{Name: nameTok.Text, Pos: nameTok.Pos}
	var buf [16]*Field
	fields := buf[:0]
	for !p.at(TokRBrack) && !p.at(TokEOF) {
		if _, ok := p.accept(TokNewline); ok {
			continue
		}
		if f := p.parseField(); f != nil {
			fields = append(fields, f)
		}
		p.endLine()
	}
	def.Fields = exactFields(fields)
	p.expect(TokRBrack)
	p.endLine()
	p.file.Unions = append(p.file.Unions, def)
}

// parseFlags handles: name = A, B, 4, C
func (p *parser) parseFlags(nameTok Token) {
	p.expect(TokEquals)
	def := &FlagsDef{Name: nameTok.Text, Pos: nameTok.Pos}
	for {
		t := p.peek()
		switch t.Kind {
		case TokIdent:
			p.next()
			def.Values = append(def.Values, FlagValue{Name: t.Text})
		case TokInt:
			p.next()
			def.Values = append(def.Values, FlagValue{Value: t.Value})
		default:
			p.errorf(t.Pos, "expected flag value, got %s %q", t.Kind, t.Text)
			p.syncLine()
			p.file.Flags = append(p.file.Flags, def)
			return
		}
		if _, ok := p.accept(TokComma); !ok {
			break
		}
	}
	p.endLine()
	p.file.Flags = append(p.file.Flags, def)
}

// endLine consumes an expected end-of-line (newline or EOF).
func (p *parser) endLine() {
	t := p.peek()
	switch t.Kind {
	case TokNewline:
		p.next()
	case TokEOF:
	case TokRBrace, TokRBrack:
		// Allow a definition's closing token to follow immediately.
	default:
		p.errorf(t.Pos, "expected end of line, got %s %q", t.Kind, t.Text)
		p.syncLine()
	}
}

// ParseTypeExpr parses a standalone type expression like
// "ptr[in, array[int8]]": the entry point for type text that arrives
// as text — a model's answer, a test fixture. Code that already knows
// the shape it wants builds the TypeExpr directly instead of printing
// it for this function to read back.
func ParseTypeExpr(src string) (*TypeExpr, error) {
	p := newParser(src)
	te := p.parseTypeExpr()
	// A lexical error anywhere in src wins, including past the
	// expression's end: lex out the rest before looking.
	for p.next().Kind != TokEOF {
	}
	if lexErrs := p.lex.Errors(); len(lexErrs) > 0 {
		return nil, lexErrs[0]
	}
	if len(p.errs) > 0 {
		return nil, p.errs[0]
	}
	if te == nil {
		return nil, fmt.Errorf("empty type expression %q", src)
	}
	return te, nil
}

// FormatErrors renders a list of errors as one newline-separated
// string, convenient for feeding back to the repair LLM.
func FormatErrors(errs []error) string {
	var b strings.Builder
	for i, e := range errs {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.Error())
	}
	return b.String()
}
