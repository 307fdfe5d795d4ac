// Package ccode is a lightweight C source analyzer playing the role
// of the LLVM-based extractor in the paper (§4). It indexes the
// synthetic kernel codebase: function definitions, struct/union/enum
// definitions, #define macros (including _IO/_IOR/_IOW/_IOWR ioctl
// command encodings), and operation-handler registrations
// (file_operations, miscdevice, proto_ops, ...). It deliberately
// implements pattern-driven parsing, not a full C frontend — exactly
// the "simple yet general pattern matching" the paper describes for
// handler extraction, plus definition lookup by identifier for the
// LLM's ExtractCode requests.
package ccode

import (
	"strings"
	"sync"
)

// CToken is a lexical token of C source.
type CToken struct {
	Kind CTokenKind
	Text string
	Off  int // byte offset in source
	Line int // 1-based
}

// CTokenKind enumerates C token categories.
type CTokenKind int

// C token kinds.
const (
	CEOF CTokenKind = iota
	CIdent
	CNumber
	CString
	CChar
	CPunct
	CComment   // /* ... */ or // ...
	CDirective // #define, #include, ... (whole line incl. continuations)
)

// LexC tokenizes C source, keeping comments and preprocessor
// directives as single tokens (the analyzer reads comments for
// intent, per the paper's L-3 discussion). It is the public,
// caller-owned form: the slice is presized from the source length and
// never pooled. The package's own passes (parseFile, AnalyzeBody, the
// constant evaluator) lex through lexInto into pooled buffers, and
// whole-identifier membership tests stream through HasIdent without
// materialising tokens at all.
func LexC(src string) []CToken {
	return lexInto(src, make([]CToken, 0, len(src)/avgTokenBytes+8))
}

// avgTokenBytes is a low estimate of source bytes per token (the
// corpus measures 6.4, its densest file 5.2), so a presized buffer
// rarely has to grow.
const avgTokenBytes = 5

// lexInto appends the tokens of src to toks. Token text aliases src,
// never the buffer, so strings copied out of tokens outlive its reuse.
func lexInto(src string, toks []CToken) []CToken {
	s := scanner{src: src, line: 1}
	for {
		// next fills the slot in place: no token copy per call.
		toks = append(toks, CToken{})
		if !s.next(&toks[len(toks)-1]) {
			return toks[:len(toks)-1]
		}
	}
}

// tokPool recycles token buffers across the package's internal lexing
// passes; tokens never escape those passes.
var tokPool = sync.Pool{New: func() any { return new([]CToken) }}

// lexPooled lexes src into a pooled buffer; release returns it.
func lexPooled(src string) *[]CToken {
	buf := tokPool.Get().(*[]CToken)
	if want := len(src)/avgTokenBytes + 8; cap(*buf) < want {
		*buf = make([]CToken, 0, want) // once, not by doubling
	}
	*buf = lexInto(src, (*buf)[:0])
	return buf
}

func release(buf *[]CToken) { tokPool.Put(buf) }

// HasIdent reports whether ident occurs in text as a whole identifier
// token — not inside a longer identifier, a number, a string, a
// comment or a directive.
func HasIdent(text, ident string) bool {
	if !strings.Contains(text, ident) {
		return false
	}
	s := scanner{src: text, line: 1}
	var t CToken
	for s.next(&t) {
		if t.Kind == CIdent && t.Text == ident {
			return true
		}
	}
	return false
}

// scanner yields the tokens of src one at a time.
type scanner struct {
	src  string
	i    int
	line int
}

// next stores the next token in t, or reports false at end of input.
func (s *scanner) next(t *CToken) bool {
	src, i, n := s.src, s.i, len(s.src)
	for i < n {
		c := src[i]
		if c == '\n' {
			s.line++
			i++
			continue
		}
		if c == ' ' || c == '\t' || c == '\r' {
			i++
			continue
		}
		start := i
		*t = CToken{Off: start, Line: s.line}
		switch {
		case c == '#' && atLineStart(src, i):
			for i < n {
				if src[i] == '\n' {
					if i > 0 && src[i-1] == '\\' {
						s.line++
						i++
						continue
					}
					break
				}
				i++
			}
			t.Kind = CDirective
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					s.line++
				}
				i++
			}
			i = min(i+2, n)
			t.Kind = CComment
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
			t.Kind = CComment
		case isCIdentStart(c):
			for i < n && isCIdentPart(src[i]) {
				i++
			}
			t.Kind = CIdent
		case c >= '0' && c <= '9':
			for i < n && (isCIdentPart(src[i]) || src[i] == '.') {
				i++
			}
			t.Kind = CNumber
		case c == '"' || c == '\'':
			i++
			for i < n && src[i] != c {
				if src[i] == '\\' {
					i++
				}
				i++
			}
			i = min(i+1, n)
			t.Kind = CString
			if c == '\'' {
				t.Kind = CChar
			}
		default:
			// Multi-char punctuation we care about: -> << >> == != <= >= && ||
			i++
			if i < n {
				switch src[start : i+1] {
				case "->", "<<", ">>", "==", "!=", "<=", ">=", "&&", "||", "|=", "&=", "+=", "-=":
					i++
				}
			}
			t.Kind = CPunct
		}
		t.Text = src[start:i]
		s.i = i
		return true
	}
	s.i = i
	return false
}

func atLineStart(src string, i int) bool {
	for j := i - 1; j >= 0; j-- {
		switch src[j] {
		case ' ', '\t', '\r':
			continue
		case '\n':
			return true
		default:
			return false
		}
	}
	return true
}

func isCIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isCIdentPart(c byte) bool { return isCIdentStart(c) || (c >= '0' && c <= '9') }

// StringValue unquotes a C string literal token text.
func StringValue(text string) string {
	s := strings.TrimSuffix(strings.TrimPrefix(text, `"`), `"`)
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '0':
				b.WriteByte(0)
			default:
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
