package syzlang

import (
	"fmt"
	"strconv"
	"strings"
)

// Lexer tokenizes syzlang source text.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	errs []error
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors reports lexical errors accumulated so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(p Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...)))
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// isIdentPart admits no '$': a syscall's call name never contains the
// separator Name() writes before its variant, so MergeDedup and Prune
// may key syscalls by the (CallName, Variant) pair.
func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, skipping spaces and comments but
// preserving newlines (syzlang is line-oriented). Consecutive blank
// lines collapse to a single TokNewline.
func (l *Lexer) Next() Token {
	for {
		c := l.peek()
		switch {
		case c == 0:
			return Token{Kind: TokEOF, Pos: l.pos()}
		case c == ' ' || c == '\t' || c == '\r':
			l.advance()
		case c == '#':
			// Comment runs to end of line; the newline itself is
			// reported separately.
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
		case c == '\n':
			p := l.pos()
			for l.peek() == '\n' {
				l.advance()
				l.skipBlank()
			}
			return Token{Kind: TokNewline, Text: "\n", Pos: p}
		default:
			return l.lexNonSpace()
		}
	}
}

// skipBlank consumes whitespace and full-line comments so that blank
// lines collapse into one newline token.
func (l *Lexer) skipBlank() {
	for {
		c := l.peek()
		if c == ' ' || c == '\t' || c == '\r' {
			l.advance()
			continue
		}
		if c == '#' {
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
			continue
		}
		return
	}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) lexNonSpace() Token {
	p := l.pos()
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for isIdentPart(l.peek()) {
			l.advance()
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.off], Pos: p}
	case isDigit(c) || c == '-':
		return l.lexNumber(p)
	case c == '"':
		return l.lexString(p)
	}
	start := l.off
	l.advance()
	kind := punctKinds[c]
	if kind == TokEOF {
		l.errorf(p, "unexpected character %q", string(c))
		return l.Next()
	}
	return Token{Kind: kind, Text: l.src[start:l.off], Pos: p}
}

// punctKinds maps a punctuation byte to its token kind; every other
// byte maps to TokEOF, which no byte lexes to.
var punctKinds = [256]TokenKind{
	'(': TokLParen, ')': TokRParen,
	'[': TokLBrack, ']': TokRBrack,
	'{': TokLBrace, '}': TokRBrace,
	',': TokComma, ':': TokColon, '=': TokEquals, '$': TokDollar,
}

func (l *Lexer) lexNumber(p Pos) Token {
	start := l.off
	neg := false
	if l.peek() == '-' {
		neg = true
		l.advance()
	}
	if strings.HasPrefix(l.src[l.off:], "0x") || strings.HasPrefix(l.src[l.off:], "0X") {
		l.advance()
		l.advance()
		for isHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for isDigit(l.peek()) {
			l.advance()
		}
	}
	text := l.src[start:l.off]
	numText := text
	if neg {
		numText = text[1:]
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(strings.TrimPrefix(numText, "0x"), "0X"), base(numText), 64)
	if err != nil {
		l.errorf(p, "bad integer literal %q", text)
	}
	if neg {
		v = uint64(-int64(v))
	}
	return Token{Kind: TokInt, Text: text, Value: v, Pos: p}
}

func base(s string) int {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return 16
	}
	return 10
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Lexer) lexString(p Pos) Token {
	l.advance() // opening quote
	var b strings.Builder
	for {
		c := l.peek()
		if c == 0 || c == '\n' {
			l.errorf(p, "unterminated string literal")
			break
		}
		l.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			esc := l.peek()
			if esc != 0 {
				l.advance()
				switch esc {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '0':
					b.WriteByte(0)
				default:
					b.WriteByte(esc)
				}
				continue
			}
		}
		b.WriteByte(c)
	}
	return Token{Kind: TokString, Text: b.String(), Pos: p}
}
