package llm

import (
	"iter"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The structured response protocol. The LLM boundary stays textual
// (prompts and completions are plain strings, as with the real API);
// these helpers define the bullet format both the simulated model and
// KernelGPT's response parser agree on — the role the few-shot
// examples play in the paper's prompts.

// CmdDecl is one command identifier the model deduced.
type CmdDecl struct {
	// Macro is the userspace command value's macro name.
	Macro string
	// Handler is the worker function for the command.
	Handler string
	// Arg is the payload struct name; ArgInt marks a plain int
	// payload; both empty/false means no payload.
	Arg    string
	ArgInt bool
	// Dir is "in"/"out"/"inout"/"none".
	Dir string
	// Plain marks raw (non-_IOC-encoded) values such as sockopts.
	Plain bool
}

// UnknownRef is a missing definition the model needs next iteration.
type UnknownRef struct {
	Kind  string // "FUNC" or "TYPE"
	Name  string
	Usage string
}

// SockCallDecl is one implemented socket call the model found.
type SockCallDecl struct {
	Call string // bind, connect, sendto, ...
	Addr string // sockaddr struct name, "" if unknown
	Fn   string // kernel handler function name
}

// IdentResult is the stage-1 (identifier deduction) result.
type IdentResult struct {
	DevicePath string
	// Domain/Level are the socket family and sockopt level macros.
	Domain string
	Level  string
	Cmds   []CmdDecl
	Calls  []SockCallDecl
	// Unknown lists dispatched functions the model could not see.
	Unknown []UnknownRef
}

// FormatIdentResult renders the stage-1 completion text.
func FormatIdentResult(r *IdentResult) string {
	size := UnknownLen(r.Unknown)
	if r.DevicePath != "" {
		size += len("## Device Path\n\n") + len(r.DevicePath)
	}
	hasFamily := r.Domain != "" || r.Level != ""
	if hasFamily {
		size += len("## Socket Family\n- DOMAIN: \n- LEVEL: \n") + dashLen(r.Domain) + dashLen(r.Level)
	}
	if len(r.Cmds) > 0 {
		size += len("## Commands\n")
		for _, c := range r.Cmds {
			size += len("- MACRO:  HANDLER:  ARG:  DIR:  PLAIN: \n") + len(c.Macro) +
				dashLen(c.Handler) + len(argField(c)) + dashLen(c.Dir) + len(strconv.FormatBool(c.Plain))
		}
	}
	if len(r.Calls) > 0 {
		size += len("## Socket Calls\n")
		for _, c := range r.Calls {
			size += len("- CALL:  ADDR:  FN: \n") + len(c.Call) + dashLen(c.Addr) + dashLen(c.Fn)
		}
	}
	var b strings.Builder
	b.Grow(size)
	if r.DevicePath != "" {
		b.WriteString("## Device Path\n")
		b.WriteString(r.DevicePath)
		b.WriteByte('\n')
	}
	if hasFamily {
		b.WriteString("## Socket Family\n- DOMAIN: ")
		b.WriteString(orDash(r.Domain))
		b.WriteString("\n- LEVEL: ")
		b.WriteString(orDash(r.Level))
		b.WriteByte('\n')
	}
	if len(r.Cmds) > 0 {
		b.WriteString("## Commands\n")
		for _, c := range r.Cmds {
			b.WriteString("- MACRO: ")
			b.WriteString(c.Macro)
			b.WriteString(" HANDLER: ")
			b.WriteString(orDash(c.Handler))
			b.WriteString(" ARG: ")
			b.WriteString(argField(c))
			b.WriteString(" DIR: ")
			b.WriteString(orDash(c.Dir))
			b.WriteString(" PLAIN: ")
			b.WriteString(strconv.FormatBool(c.Plain))
			b.WriteByte('\n')
		}
	}
	if len(r.Calls) > 0 {
		b.WriteString("## Socket Calls\n")
		for _, c := range r.Calls {
			b.WriteString("- CALL: ")
			b.WriteString(c.Call)
			b.WriteString(" ADDR: ")
			b.WriteString(orDash(c.Addr))
			b.WriteString(" FN: ")
			b.WriteString(orDash(c.Fn))
			b.WriteByte('\n')
		}
	}
	WriteUnknown(&b, r.Unknown)
	return b.String()
}

func argField(c CmdDecl) string {
	switch {
	case c.Arg != "":
		return c.Arg
	case c.ArgInt:
		return "int"
	}
	return "-"
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// dashLen is len(orDash(s)).
func dashLen(s string) int { return max(len(s), 1) }

// UnknownLen is the length WriteUnknown writes for refs.
func UnknownLen(refs []UnknownRef) int {
	if len(refs) == 0 {
		return 0
	}
	n := len(SecUnknown) + 1
	for _, u := range refs {
		n += len("- :  USAGE: \n") + len(u.Kind) + len(u.Name) + len(u.Usage)
	}
	return n
}

// WriteUnknown writes refs as an Unknown section, one bullet each,
// nothing for none: the section in which a completion lists what it
// could not see, and a prompt what it asks about.
func WriteUnknown(b *strings.Builder, refs []UnknownRef) {
	if len(refs) == 0 {
		return
	}
	b.WriteString(SecUnknown + "\n")
	for _, u := range refs {
		b.WriteString("- ")
		b.WriteString(u.Kind)
		b.WriteString(": ")
		b.WriteString(u.Name)
		b.WriteString(" USAGE: ")
		b.WriteString(u.Usage)
		b.WriteByte('\n')
	}
}

// ParseIdentResult parses a stage-1 completion.
func ParseIdentResult(text string) *IdentResult {
	r := &IdentResult{}
	r.DevicePath = firstLine(ExtractSection(text, "## Device Path"))
	for ln := range lines(ExtractSection(text, "## Socket Family")) {
		if v, ok := bulletValue(ln, "DOMAIN"); ok {
			r.Domain = undash(v)
		}
		if v, ok := bulletValue(ln, "LEVEL"); ok {
			r.Level = undash(v)
		}
	}
	var buf [8]kvPair
	for ln := range lines(ExtractSection(text, "## Commands")) {
		kv := parseKV(ln, buf[:0])
		macro := kvGet(kv, "MACRO")
		if macro == "" {
			continue
		}
		c := CmdDecl{
			Macro:   macro,
			Handler: undash(kvGet(kv, "HANDLER")),
			Dir:     undash(kvGet(kv, "DIR")),
			Plain:   kvGet(kv, "PLAIN") == "true",
		}
		switch arg := undash(kvGet(kv, "ARG")); arg {
		case "int":
			c.ArgInt = true
		case "":
		default:
			c.Arg = arg
		}
		r.Cmds = append(r.Cmds, c)
	}
	for ln := range lines(ExtractSection(text, "## Socket Calls")) {
		kv := parseKV(ln, buf[:0])
		call := kvGet(kv, "CALL")
		if call == "" {
			continue
		}
		r.Calls = append(r.Calls, SockCallDecl{Call: call, Addr: undash(kvGet(kv, "ADDR")), Fn: undash(kvGet(kv, "FN"))})
	}
	r.Unknown = parseUnknown(text)
	return r
}

func parseUnknown(text string) []UnknownRef {
	return unknownRefs(ExtractSection(text, SecUnknown))
}

// unknownRefs parses the bullets of an Unknown section body.
func unknownRefs(body string) []UnknownRef {
	var out []UnknownRef
	for ln := range lines(body) {
		ln = strings.TrimPrefix(strings.TrimSpace(ln), "- ")
		kind, rest, ok := strings.Cut(ln, ": ")
		if !ok {
			continue
		}
		name, usage, _ := strings.Cut(rest, " USAGE:")
		out = append(out, UnknownRef{
			Kind: kind, Name: strings.TrimSpace(name),
			Usage: strings.TrimSpace(usage),
		})
	}
	return out
}

// TypeResult is the stage-2 (type recovery) result: syzlang struct
// definition text plus unresolved nested types.
type TypeResult struct {
	// Defs is syzlang source text (struct/union/flags definitions).
	Defs    string
	Unknown []UnknownRef
}

// FormatTypeResult renders the stage-2 completion.
func FormatTypeResult(r *TypeResult) string {
	nl := !strings.HasSuffix(r.Defs, "\n")
	size := len("## Type Definitions\n") + len(r.Defs) + UnknownLen(r.Unknown)
	if nl {
		size++
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString("## Type Definitions\n")
	b.WriteString(r.Defs)
	if nl {
		b.WriteByte('\n')
	}
	WriteUnknown(&b, r.Unknown)
	return b.String()
}

// ParseTypeResult parses a stage-2 completion.
func ParseTypeResult(text string) *TypeResult {
	return &TypeResult{
		Defs:    ExtractSection(text, "## Type Definitions"),
		Unknown: parseUnknown(text),
	}
}

// DepDecl is one resource dependency the model found.
type DepDecl struct {
	// Cmd creates the resource; Creates is the anon inode tag (the
	// secondary handler name); Fops the secondary operations struct.
	Cmd     string
	Creates string
	Fops    string
}

// DepResult is the stage-3 (dependency analysis) result.
type DepResult struct {
	Deps    []DepDecl
	Unknown []UnknownRef
}

// FormatDepResult renders the stage-3 completion.
func FormatDepResult(r *DepResult) string {
	size := len("## Dependencies\n") + UnknownLen(r.Unknown)
	for _, d := range r.Deps {
		size += len("- CMD:  CREATES:  FOPS: \n") + len(d.Cmd) + len(d.Creates) + dashLen(d.Fops)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString("## Dependencies\n")
	for _, d := range r.Deps {
		b.WriteString("- CMD: ")
		b.WriteString(d.Cmd)
		b.WriteString(" CREATES: ")
		b.WriteString(d.Creates)
		b.WriteString(" FOPS: ")
		b.WriteString(orDash(d.Fops))
		b.WriteByte('\n')
	}
	WriteUnknown(&b, r.Unknown)
	return b.String()
}

// ParseDepResult parses a stage-3 completion.
func ParseDepResult(text string) *DepResult {
	r := &DepResult{}
	var buf [8]kvPair
	for ln := range lines(ExtractSection(text, "## Dependencies")) {
		kv := parseKV(ln, buf[:0])
		cmd := kvGet(kv, "CMD")
		if cmd == "" {
			continue
		}
		r.Deps = append(r.Deps, DepDecl{Cmd: cmd, Creates: kvGet(kv, "CREATES"), Fops: undash(kvGet(kv, "FOPS"))})
	}
	r.Unknown = parseUnknown(text)
	return r
}

// --- low-level helpers ---

// lines yields the lines of s, none for an empty s.
func lines(s string) iter.Seq[string] {
	if s == "" {
		return func(func(string) bool) {}
	}
	return strings.SplitSeq(s, "\n")
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

func bulletValue(ln, key string) (string, bool) {
	ln = strings.TrimPrefix(strings.TrimSpace(ln), "- ")
	if rest, ok := strings.CutPrefix(ln, key+": "); ok {
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// kvPair is one "KEY: value" of a bullet.
type kvPair struct{ key, val string }

// parseKV splits "- K1: v1 K2: v2 ..." bullets where keys are
// ALLCAPS tokens followed by ":", and a value is the whitespace
// separated words up to the next key joined by single spaces. It
// appends the pairs to pairs, the caller's buffer. A value whose words
// are single-space separated already is a slice of ln.
func parseKV(ln string, pairs []kvPair) []kvPair {
	ln = strings.TrimPrefix(strings.TrimSpace(ln), "- ")
	key := ""
	// The current value runs over ln[from:to]; joined is false once a
	// gap between two of its words is anything but one space.
	from, to, joined := -1, 0, true
	flush := func() {
		if key == "" {
			return
		}
		val := ""
		if from >= 0 {
			val = ln[from:to]
			if !joined {
				val = strings.Join(strings.Fields(val), " ")
			}
		}
		pairs = append(pairs, kvPair{key, val})
	}
	for i := 0; i < len(ln); {
		if n := spaceLen(ln[i:]); n > 0 {
			i += n
			continue
		}
		start := i
		for i < len(ln) && spaceLen(ln[i:]) == 0 {
			_, n := utf8.DecodeRuneInString(ln[i:])
			i += n
		}
		f := ln[start:i]
		if k, ok := strings.CutSuffix(f, ":"); ok && isAllCaps(k) {
			flush()
			key, from, joined = k, -1, true
			continue
		}
		if from < 0 {
			from = start
		} else if start != to+1 || ln[to] != ' ' {
			joined = false
		}
		to = i
	}
	flush()
	return pairs
}

// spaceLen is the length of the white-space rune s starts with (as
// unicode.IsSpace, which strings.Fields splits on, defines it), 0 if
// s does not start with one.
func spaceLen(s string) int {
	if s == "" {
		return 0
	}
	if c := s[0]; c < utf8.RuneSelf {
		if c == ' ' || '\t' <= c && c <= '\r' {
			return 1
		}
		return 0
	}
	if r, n := utf8.DecodeRuneInString(s); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// kvGet returns key's value among pairs; a key given twice keeps its
// last value.
func kvGet(pairs []kvPair, key string) string {
	for i := len(pairs) - 1; i >= 0; i-- {
		if pairs[i].key == key {
			return pairs[i].val
		}
	}
	return ""
}

func isAllCaps(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'A' && c <= 'Z') && c != '_' {
			return false
		}
	}
	return true
}

// undash turns the "-" placeholder back into an empty string.
func undash(s string) string {
	if s == "-" {
		return ""
	}
	return s
}
