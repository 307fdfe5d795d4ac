package ccode

import "strings"

// BodyInfo is the structural summary of a function body that both the
// simulated analysis LLM and the SyzDescribe baseline consume:
// switch dispatch tables, call sites, simple assignments, and
// delegations ("return f(...)").
//
// A BodyInfo is immutable once built: (*Function).Info hands the same
// value to every goroutine working on an Index (engine workers, the
// sim, the baseline), so readers must not write to it — including
// appending to one of its slices, which would write into spare
// capacity the other readers share.
type BodyInfo struct {
	// Switches lists switch statements with the switched-on
	// expression and the case labels.
	Switches []SwitchInfo
	// Calls lists every function call site in source order.
	Calls []CallSite
	// Assigns maps variable names to the text of their last simple
	// assignment right-hand side (e.g. "cmd" -> "_IOC_NR ( command )").
	Assigns map[string]string
	// Delegations lists functions invoked as "return f(...)" — the
	// whole-body delegation pattern of dm_ctl_ioctl in the paper.
	Delegations []CallSite
	// CopyFromUser lists the destination struct types of
	// copy_from_user-style calls, in order.
	CopyFromUser []string
	// Comments holds all comment text found in the body.
	Comments []string
}

// SwitchInfo describes one switch statement.
type SwitchInfo struct {
	// Expr is the switched-on expression text, e.g. "cmd" or
	// "_IOC_NR ( command )".
	Expr string
	// Cases lists the case label expressions in order (default is
	// omitted).
	Cases []SwitchCase
}

// SwitchCase is one case label and a summary of its body.
type SwitchCase struct {
	// Label is the case expression text, e.g. "DM_VERSION_CMD".
	Label string
	// Calls lists functions invoked inside this case before the next
	// case/default/closing brace.
	Calls []string
	// Body is the raw text of the case body.
	Body string
	// CopyFromUser and Copies are what AnalyzeBody("{"+Body+"}")
	// reports as CopyFromUser and as the user copies among its Calls
	// (the copy_from_user family and copy_from_sockptr), recorded
	// while the case is parsed so a reader need not re-lex the body.
	CopyFromUser []string
	Copies       []CallSite
}

// CallSite is one function invocation.
type CallSite struct {
	Name string
	// Args holds the raw text of each argument.
	Args []string
	// Raw is the full invocation text.
	Raw string
}

// controlKeywords are identifiers that look like calls but are not.
var controlKeywords = map[string]bool{
	"if": true, "for": true, "while": true, "switch": true,
	"return": true, "sizeof": true, "case": true, "do": true,
}

// AnalyzeBody parses a function body (text including outer braces)
// into a fresh BodyInfo, lexing the text once. For an indexed
// function use (*Function).Info, which memoises the result; call
// AnalyzeBody directly only for text that is not a Function's body
// (a switch-case fragment, a test fixture).
func AnalyzeBody(body string) *BodyInfo {
	buf := lexPooled(body)
	defer release(buf)
	toks := *buf
	info := &BodyInfo{Assigns: map[string]string{}}
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch t.Kind {
		case CComment:
			if c := cleanComment(t.Text); c != "" {
				info.Comments = append(info.Comments, c)
			}
		case CIdent:
			switch {
			case t.Text == "switch":
				if sw, next := parseSwitch(toks, i); sw != nil {
					info.Switches = append(info.Switches, *sw)
					_ = next // continue scanning inside for nested calls
				}
			case t.Text == "return":
				if i+1 < len(toks) && toks[i+1].Kind == CIdent && i+2 < len(toks) && toks[i+2].Text == "(" {
					if cs := parseCall(toks, i+1); cs != nil {
						info.Delegations = append(info.Delegations, *cs)
					}
				}
			case !controlKeywords[t.Text] && i+1 < len(toks) && toks[i+1].Text == "(":
				if cs := parseCall(toks, i); cs != nil {
					info.Calls = append(info.Calls, *cs)
					if typ := copyDest(cs); typ != "" {
						info.CopyFromUser = append(info.CopyFromUser, typ)
					}
				}
			case i+1 < len(toks) && toks[i+1].Kind == CPunct && toks[i+1].Text == "=":
				// Simple assignment "ident = rhs ;" (skip ==).
				if i+2 < len(toks) && toks[i+2].Text != "=" {
					rhs := collectUntil(toks, i+2, ";")
					if rhs != "" {
						info.Assigns[t.Text] = rhs
					}
				}
			}
		}
	}
	return info
}

func isCopyFromUser(name string) bool {
	switch name {
	case "copy_from_user", "copy_to_user", "get_user", "put_user", "memdup_user":
		return true
	}
	return false
}

// copyDest extracts the "struct X" a copy_from_user-style call copies
// from a cast or sizeof in its argument text, or returns "".
func copyDest(cs *CallSite) string {
	if !isCopyFromUser(cs.Name) || len(cs.Args) < 2 {
		return ""
	}
	for _, a := range cs.Args {
		if idx := strings.Index(a, "struct "); idx >= 0 {
			rest := a[idx+len("struct "):]
			end := 0
			for end < len(rest) && (isCIdentPart(rest[end]) || rest[end] == ' ') {
				if rest[end] == ' ' && end > 0 {
					break
				}
				end++
			}
			name := strings.TrimSpace(rest[:end])
			if name != "" {
				return name
			}
		}
	}
	return ""
}

// joinTexts renders toks as their texts separated by single spaces —
// the normalised form every BodyInfo string has — in one allocation
// (none for a single token). Comment tokens are left out unless
// comments is set.
func joinTexts(toks []CToken, comments bool) string {
	size, kept, first := 0, 0, 0
	for i := range toks {
		if comments || toks[i].Kind != CComment {
			if kept == 0 {
				first = i
			}
			kept++
			size += len(toks[i].Text) + 1
		}
	}
	switch kept {
	case 0:
		return ""
	case 1:
		return toks[first].Text
	}
	var b strings.Builder
	b.Grow(size - 1)
	for _, t := range toks[first:] {
		if comments || t.Kind != CComment {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(t.Text)
		}
	}
	return b.String()
}

func collectUntil(toks []CToken, i int, stop string) string {
	end := i
	for end < len(toks) && !(toks[end].Kind == CPunct && toks[end].Text == stop) {
		end++
	}
	return joinTexts(toks[i:end], false)
}

// parseCall parses a call expression at toks[i] (an identifier
// followed by '(') and returns the call site.
func parseCall(toks []CToken, i int) *CallSite {
	name := toks[i].Text
	if controlKeywords[name] {
		return nil
	}
	end := matchParen(toks, i+1, "(", ")")
	if end < i+3 {
		return nil // "f(" at the very end of the text
	}
	inner := toks[i+2 : end-1]
	// One pass counts the top-level commas, so Args is sized once,
	// and finds whether a comment rides in the call.
	depth, commas, comment := 0, 0, false
	for _, t := range inner {
		switch t.Kind {
		case CComment:
			comment = true
		case CPunct:
			switch t.Text {
			case "(", "[", "{":
				depth++
			case ")", "]", "}":
				depth--
			case ",":
				if depth == 0 {
					commas++
				}
			}
		}
	}
	cs := &CallSite{Name: name, Raw: joinTexts(toks[i:end], true)}
	// Without a comment, Raw is the tokens separated by single spaces,
	// so an argument's text is the slice of Raw from its first token
	// to the space before the token that ends it; off is the offset in
	// Raw of the token at hand.
	arg := func(from, to, fromOff, toOff int) string {
		if comment {
			return joinTexts(inner[from:to], false)
		}
		if from == to {
			return ""
		}
		return cs.Raw[fromOff : toOff-1]
	}
	add := func(a string) {
		if cs.Args == nil {
			cs.Args = make([]string, 0, commas+1)
		}
		cs.Args = append(cs.Args, a)
	}
	depth = 0
	start, startOff := 0, len(name)+3
	off := startOff
	for k, t := range inner {
		if t.Kind == CPunct {
			switch t.Text {
			case "(", "[", "{":
				depth++
			case ")", "]", "}":
				depth--
			case ",":
				if depth == 0 {
					add(arg(start, k, startOff, off))
					start, startOff = k+1, off+2
				}
			}
		}
		off += len(t.Text) + 1
	}
	if last := arg(start, len(inner), startOff, off); last != "" {
		add(last)
	}
	return cs
}

// parseSwitch parses "switch (expr) { case L: ... }" at toks[i].
func parseSwitch(toks []CToken, i int) (*SwitchInfo, int) {
	if i+1 >= len(toks) || toks[i+1].Text != "(" {
		return nil, i
	}
	exprEnd := matchParen(toks, i+1, "(", ")")
	if exprEnd >= len(toks) || toks[exprEnd].Text != "{" {
		return nil, i
	}
	sw := &SwitchInfo{Expr: joinTexts(toks[i+2:exprEnd-1], false)}
	bodyEnd := matchParen(toks, exprEnd, "{", "}")
	// An unterminated body runs to the end of the text.
	inner := toks[exprEnd+1 : max(bodyEnd-1, exprEnd+1)]
	depth := 0
	for k := 0; k < len(inner); k++ {
		t := inner[k]
		if t.Kind == CPunct {
			switch t.Text {
			case "{":
				depth++
			case "}":
				depth--
			}
			continue
		}
		if depth != 0 || t.Kind != CIdent || t.Text != "case" {
			continue
		}
		// Label runs to ':'.
		k++
		labelStart := k
		for k < len(inner) && !(inner[k].Kind == CPunct && inner[k].Text == ":") {
			k++
		}
		c := SwitchCase{Label: joinTexts(inner[labelStart:k], false)}
		// Body runs to next top-level case/default or end.
		start := min(k+1, len(inner))
		j := start
		d := 0
		for j < len(inner) {
			tt := inner[j]
			if tt.Kind == CPunct {
				if tt.Text == "{" {
					d++
				}
				if tt.Text == "}" {
					d--
				}
			}
			if d == 0 && tt.Kind == CIdent && (tt.Text == "case" || tt.Text == "default") {
				break
			}
			j++
		}
		for m := start; m < j; m++ {
			if inner[m].Kind == CIdent && !controlKeywords[inner[m].Text] &&
				m+1 < j && inner[m+1].Text == "(" {
				c.Calls = append(c.Calls, inner[m].Text)
			}
		}
		c.Body = joinTexts(inner[start:j], false)
		c.CopyFromUser, c.Copies = caseCopies(inner[start:j], c.Body)
		sw.Cases = append(sw.Cases, c)
		k = j - 1
	}
	return sw, bodyEnd
}

// caseCopies returns what AnalyzeBody("{"+body+"}") reports as
// CopyFromUser and as its user-copy Calls, where body is the case
// body text joinTexts made of toks, scanning the calls the way
// AnalyzeBody does.
func caseCopies(toks []CToken, body string) (dests []string, copies []CallSite) {
	buf := wrapCase(toks, body)
	defer release(buf)
	t := *buf
	for i := 0; i+1 < len(t); i++ {
		name := t[i].Text
		if t[i].Kind == CIdent && t[i+1].Text == "(" && (isCopyFromUser(name) || name == "copy_from_sockptr") {
			cs := parseCall(t, i) // not nil: a token always follows the "("
			copies = append(copies, *cs)
			if typ := copyDest(cs); typ != "" {
				dests = append(dests, typ)
			}
		}
	}
	return dests, copies
}

// wrapCase returns the tokens of "{"+body+"}" in a pooled buffer.
// Re-lexing body yields toks without their comments unless a token
// re-lexes differently: a directive (its '#' no longer starts a line)
// or a quote left open (it would swallow the "}"; the lexer leaves one
// open only at the end of the source, so only a last token can be).
// Only then is the text lexed again.
func wrapCase(toks []CToken, body string) *[]CToken {
	for i, t := range toks {
		if t.Kind == CDirective || i == len(toks)-1 && (t.Kind == CString || t.Kind == CChar) {
			return lexPooled("{" + body + "}")
		}
	}
	buf := tokPool.Get().(*[]CToken)
	w := append((*buf)[:0], CToken{Kind: CPunct, Text: "{"})
	for _, t := range toks {
		if t.Kind != CComment {
			w = append(w, t)
		}
	}
	*buf = append(w, CToken{Kind: CPunct, Text: "}"})
	return buf
}
