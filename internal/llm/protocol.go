package llm

import (
	"fmt"
	"strings"
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
	writeUnknown(&b, r.Unknown)
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

func writeUnknown(b *strings.Builder, refs []UnknownRef) {
	if len(refs) == 0 {
		return
	}
	b.WriteString("## Unknown\n")
	for _, u := range refs {
		fmt.Fprintf(b, "- %s: %s USAGE: %s\n", u.Kind, u.Name, u.Usage)
	}
}

// ParseIdentResult parses a stage-1 completion.
func ParseIdentResult(text string) *IdentResult {
	r := &IdentResult{}
	r.DevicePath = firstLine(ExtractSection(text, "## Device Path"))
	for _, ln := range lines(ExtractSection(text, "## Socket Family")) {
		if v, ok := bulletValue(ln, "DOMAIN"); ok {
			r.Domain = undash(v)
		}
		if v, ok := bulletValue(ln, "LEVEL"); ok {
			r.Level = undash(v)
		}
	}
	for _, ln := range lines(ExtractSection(text, "## Commands")) {
		kv := parseKV(ln)
		if kv["MACRO"] == "" {
			continue
		}
		c := CmdDecl{
			Macro:   kv["MACRO"],
			Handler: undash(kv["HANDLER"]),
			Dir:     undash(kv["DIR"]),
			Plain:   kv["PLAIN"] == "true",
		}
		switch arg := undash(kv["ARG"]); arg {
		case "int":
			c.ArgInt = true
		case "":
		default:
			c.Arg = arg
		}
		r.Cmds = append(r.Cmds, c)
	}
	for _, ln := range lines(ExtractSection(text, "## Socket Calls")) {
		kv := parseKV(ln)
		if kv["CALL"] == "" {
			continue
		}
		r.Calls = append(r.Calls, SockCallDecl{Call: kv["CALL"], Addr: undash(kv["ADDR"]), Fn: undash(kv["FN"])})
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
	for _, ln := range lines(body) {
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
	var b strings.Builder
	b.WriteString("## Type Definitions\n")
	b.WriteString(r.Defs)
	if !strings.HasSuffix(r.Defs, "\n") {
		b.WriteByte('\n')
	}
	writeUnknown(&b, r.Unknown)
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
	var b strings.Builder
	b.WriteString("## Dependencies\n")
	for _, d := range r.Deps {
		fmt.Fprintf(&b, "- CMD: %s CREATES: %s FOPS: %s\n", d.Cmd, d.Creates, orDash(d.Fops))
	}
	writeUnknown(&b, r.Unknown)
	return b.String()
}

// ParseDepResult parses a stage-3 completion.
func ParseDepResult(text string) *DepResult {
	r := &DepResult{}
	for _, ln := range lines(ExtractSection(text, "## Dependencies")) {
		kv := parseKV(ln)
		if kv["CMD"] == "" {
			continue
		}
		r.Deps = append(r.Deps, DepDecl{Cmd: kv["CMD"], Creates: kv["CREATES"], Fops: undash(kv["FOPS"])})
	}
	r.Unknown = parseUnknown(text)
	return r
}

// --- low-level helpers ---

func lines(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
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

// parseKV splits "- K1: v1 K2: v2 ..." bullets where keys are
// ALLCAPS tokens followed by ": ".
func parseKV(ln string) map[string]string {
	out := map[string]string{}
	ln = strings.TrimPrefix(strings.TrimSpace(ln), "- ")
	fields := strings.Fields(ln)
	key := ""
	var val []string
	flush := func() {
		if key != "" {
			out[key] = strings.Join(val, " ")
		}
		val = nil
	}
	for _, f := range fields {
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
