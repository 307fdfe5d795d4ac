package ccode

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Function is an indexed C function definition.
type Function struct {
	Name    string
	File    string
	Body    string // body text including braces
	Raw     string // full definition text (signature + body)
	Static  bool
	Comment string // doc comment immediately preceding the definition

	infoOnce sync.Once
	info     *BodyInfo // set by infoOnce
}

// Info returns the structural summary of the function's body,
// analysing it on first use and at most once per Index. It is safe
// for concurrent use; the result is shared by every caller and must
// not be modified (see BodyInfo).
func (f *Function) Info() *BodyInfo {
	f.infoOnce.Do(func() { f.info = AnalyzeBody(f.Body) })
	return f.info
}

// StructField is one member of a C struct/union definition.
type StructField struct {
	Type    string // C type text, e.g. "__u32", "struct foo *", "char"
	Name    string
	Array   string // array size expression, "" if not an array; "0" or "" text for flexible arrays
	IsArray bool
	Comment string // trailing or preceding comment on the field line
}

// Struct is an indexed struct or union definition.
type Struct struct {
	Name    string
	Union   bool
	Fields  []StructField
	Raw     string
	File    string
	Comment string
}

// Enum is an indexed enum definition.
type Enum struct {
	Name   string // may be "" for anonymous enums
	Values map[string]uint64
	Raw    string
	File   string
}

// Macro is an indexed #define.
type Macro struct {
	Name string
	// Value is the raw replacement text.
	Value string
	File  string
	// Params holds parameter names for function-like macros.
	Params []string
}

// Registration is a struct-variable initialization like
// "static const struct file_operations _ctl_fops = { .open = ..., };".
// These are the operation handlers the extractor hunts for.
type Registration struct {
	VarName    string
	StructType string // e.g. "file_operations", "miscdevice", "proto_ops"
	File       string
	// Fields maps designated-initializer field names to their raw
	// value text, e.g. "unlocked_ioctl" -> "dm_ctl_ioctl",
	// "nodename" -> `DM_DIR "/" DM_CONTROL_NODE`.
	Fields map[string]string
	Raw    string
}

// Index is the queryable database over a parsed source tree. It is
// the Go equivalent of the paper's "kernel code extractor": handler
// discovery plus definition extraction by identifier.
type Index struct {
	Functions map[string]*Function
	Structs   map[string]*Struct
	Enums     []*Enum
	EnumVals  map[string]uint64
	Macros    map[string]*Macro
	Regs      []*Registration
	files     map[string]string
	// macros backs the Macros values: one allocation for all of them,
	// sized by the "#define"s in the source (a bound on their count).
	macros []Macro
}

// NewIndex parses every file in files (name → source text) and builds
// the definition index.
func NewIndex(files map[string]string) *Index {
	defines := 0
	names := make([]string, 0, len(files))
	for name, src := range files {
		names = append(names, name)
		defines += strings.Count(src, "#define")
	}
	ix := &Index{
		Functions: map[string]*Function{},
		Structs:   map[string]*Struct{},
		EnumVals:  map[string]uint64{},
		Macros:    make(map[string]*Macro, defines),
		files:     files,
		macros:    make([]Macro, 0, defines),
	}
	sort.Strings(names)
	for _, name := range names {
		ix.parseFile(name, files[name])
	}
	return ix
}

// Files returns the raw source map the index was built from.
func (ix *Index) Files() map[string]string { return ix.files }

// Function returns the indexed function with the given name, or nil.
func (ix *Index) Function(name string) *Function { return ix.Functions[name] }

// StructDef returns the struct/union definition with the given name,
// or nil.
func (ix *Index) StructDef(name string) *Struct { return ix.Structs[name] }

// MacroDef returns the macro with the given name, or nil.
func (ix *Index) MacroDef(name string) *Macro { return ix.Macros[name] }

// Registrations returns all registrations of the given struct type
// (e.g. "file_operations"), in deterministic order.
func (ix *Index) Registrations(structType string) []*Registration {
	var out []*Registration
	for _, r := range ix.Regs {
		if r.StructType == structType {
			out = append(out, r)
		}
	}
	return out
}

// ExtractType returns the raw source of a struct/union/enum
// definition only, for type-kind lookups where a function shares the
// name (dm_ioctl is both a struct and, in some trees, a function).
func (ix *Index) ExtractType(ident string) (string, bool) {
	if s := ix.Structs[ident]; s != nil {
		return s.Raw, true
	}
	for _, e := range ix.Enums {
		if e.Name == ident {
			return e.Raw, true
		}
	}
	return "", false
}

// ExtractCode returns the raw source text for the named identifier:
// function, struct, enum, or macro — the LLM's on-demand definition
// fetch (Algorithm 1, ExtractCode). The bool reports whether the
// identifier was found.
func (ix *Index) ExtractCode(ident string) (string, bool) {
	if f := ix.Functions[ident]; f != nil {
		return f.Raw, true
	}
	if s := ix.Structs[ident]; s != nil {
		return s.Raw, true
	}
	if m := ix.Macros[ident]; m != nil {
		return "#define " + m.Name + " " + m.Value, true
	}
	for _, e := range ix.Enums {
		if e.Name == ident {
			return e.Raw, true
		}
		if _, ok := e.Values[ident]; ok {
			return e.Raw, true
		}
	}
	return "", false
}

// parseFile scans one source file for definitions.
func (ix *Index) parseFile(name, src string) {
	buf := lexPooled(src)
	defer release(buf)
	toks := *buf
	depth := 0
	var lastComment string
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch t.Kind {
		case CDirective:
			ix.parseDirective(name, t.Text)
			continue
		case CComment:
			if depth == 0 {
				lastComment = cleanComment(t.Text)
			}
			continue
		case CPunct:
			switch t.Text {
			case "{":
				depth++
			case "}":
				depth--
			}
			continue
		}
		if depth != 0 || t.Kind != CIdent {
			continue
		}
		switch t.Text {
		case "struct", "union":
			if j := ix.tryParseStructDef(name, src, toks, i, t.Text == "union", lastComment); j > i {
				i = j
				lastComment = ""
				continue
			}
		case "enum":
			if j := ix.tryParseEnumDef(name, src, toks, i); j > i {
				i = j
				lastComment = ""
				continue
			}
		}
		if j := ix.tryParseRegistration(name, src, toks, i); j > i {
			i = j
			lastComment = ""
			continue
		}
		if j := ix.tryParseFunction(name, src, toks, i, lastComment); j > i {
			i = j
			lastComment = ""
			continue
		}
	}
}

func cleanComment(text string) string {
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSuffix(text, "*/")
	text = strings.TrimPrefix(text, "//")
	var lines []string
	for _, ln := range strings.Split(text, "\n") {
		ln = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(ln), "*"))
		if ln != "" {
			lines = append(lines, ln)
		}
	}
	return strings.Join(lines, " ")
}

// parseDirective handles #define lines.
func (ix *Index) parseDirective(file, text string) {
	text = strings.ReplaceAll(text, "\\\n", " ")
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), "#define")
	if !ok {
		return
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return
	}
	// Name runs to first space or '('.
	end := 0
	for end < len(rest) && isCIdentPart(rest[end]) {
		end++
	}
	name := rest[:end]
	if name == "" {
		return
	}
	m := Macro{Name: name, File: file}
	rest = rest[end:]
	if strings.HasPrefix(rest, "(") {
		// Function-like macro: capture params.
		close := strings.Index(rest, ")")
		if close < 0 {
			return
		}
		for _, p := range strings.Split(rest[1:close], ",") {
			if p = strings.TrimSpace(p); p != "" {
				m.Params = append(m.Params, p)
			}
		}
		rest = rest[close+1:]
	}
	m.Value = strings.TrimSpace(rest)
	ix.macros = append(ix.macros, m)
	ix.Macros[name] = &ix.macros[len(ix.macros)-1]
}

// matchParen returns the token index just past the matching closing
// delimiter, assuming toks[i] is the opening one.
func matchParen(toks []CToken, i int, open, close string) int {
	depth := 0
	for ; i < len(toks); i++ {
		if toks[i].Kind != CPunct {
			continue
		}
		switch toks[i].Text {
		case open:
			depth++
		case close:
			depth--
			if depth == 0 {
				return i + 1
			}
		}
	}
	return i
}

// tryParseStructDef handles "struct name { ... };" at top level.
// Returns the index of the last consumed token, or i if no match.
func (ix *Index) tryParseStructDef(file, src string, toks []CToken, i int, union bool, comment string) int {
	// toks[i] == "struct"/"union"; need IDENT '{'.
	j := i + 1
	if j >= len(toks) || toks[j].Kind != CIdent {
		return i
	}
	name := toks[j].Text
	j++
	if j >= len(toks) || toks[j].Text != "{" {
		return i
	}
	end := matchParen(toks, j, "{", "}")
	if end >= len(toks) || end <= j {
		return i
	}
	// Must be a definition (followed by ';'), not a variable decl
	// with initializer.
	if toks[end].Text != ";" {
		return i
	}
	raw := src[toks[i].Off : toks[end].Off+1]
	st := &Struct{Name: name, Union: union, Raw: raw, File: file, Comment: comment}
	st.Fields = parseStructFields(toks[j+1 : end-1])
	ix.Structs[name] = st
	return end
}

// parseStructFields splits the token run inside braces into
// ';'-terminated declarations.
func parseStructFields(toks []CToken) []StructField {
	var fields []StructField
	var cur []CToken
	var pending string // comment preceding the next field
	depth := 0
	flush := func(trailing string) {
		if len(cur) == 0 {
			return
		}
		if f, ok := parseOneField(cur); ok {
			if f.Comment == "" {
				f.Comment = trailing
			}
			if f.Comment == "" {
				f.Comment = pending
			}
			fields = append(fields, f)
		}
		cur = nil
		pending = ""
	}
	for k := 0; k < len(toks); k++ {
		t := toks[k]
		if t.Kind == CComment {
			c := cleanComment(t.Text)
			if len(cur) == 0 {
				pending = c
			} else {
				// Comment after tokens but before ';' — attach on flush.
				cur = append(cur, t)
			}
			continue
		}
		if t.Kind == CPunct {
			switch t.Text {
			case "{":
				depth++
			case "}":
				depth--
			case ";":
				if depth == 0 {
					// Peek for a trailing comment on the same line.
					trailing := ""
					if k+1 < len(toks) && toks[k+1].Kind == CComment && toks[k+1].Line == t.Line {
						trailing = cleanComment(toks[k+1].Text)
						k++
					}
					flush(trailing)
					continue
				}
			}
		}
		cur = append(cur, t)
	}
	flush("")
	return fields
}

// parseOneField interprets one declaration token run, e.g.
// "__u32 version [ 3 ]" or "struct dm_target_spec * spec" or
// "char name [ DM_NAME_LEN ]".
func parseOneField(toks []CToken) (StructField, bool) {
	// Strip embedded comments.
	clean := toks[:0:0]
	comment := ""
	for _, t := range toks {
		if t.Kind == CComment {
			comment = cleanComment(t.Text)
			continue
		}
		clean = append(clean, t)
	}
	toks = clean
	if len(toks) < 2 {
		return StructField{}, false
	}
	f := StructField{Comment: comment}
	// Array suffix?
	end := len(toks)
	if toks[end-1].Text == "]" {
		// Find matching '['.
		depth := 0
		for k := end - 1; k >= 0; k-- {
			if toks[k].Text == "]" {
				depth++
			}
			if toks[k].Text == "[" {
				depth--
				if depth == 0 {
					f.IsArray = true
					f.Array = joinTexts(toks[k+1:end-1], true)
					end = k
					break
				}
			}
		}
	}
	if end < 2 || toks[end-1].Kind != CIdent {
		return StructField{}, false
	}
	f.Name = toks[end-1].Text
	f.Type = joinTexts(toks[:end-1], true)
	if f.Type == "" {
		return StructField{}, false
	}
	return f, true
}

// tryParseEnumDef handles "enum [name] { A = 1, B, };".
func (ix *Index) tryParseEnumDef(file, src string, toks []CToken, i int) int {
	j := i + 1
	name := ""
	if j < len(toks) && toks[j].Kind == CIdent {
		name = toks[j].Text
		j++
	}
	if j >= len(toks) || toks[j].Text != "{" {
		return i
	}
	end := matchParen(toks, j, "{", "}")
	if end >= len(toks) || toks[end].Text != ";" {
		return i
	}
	e := &Enum{Name: name, Values: map[string]uint64{}, File: file,
		Raw: src[toks[i].Off : toks[end].Off+1]}
	var next uint64
	inner := toks[j+1 : end-1]
	for k := 0; k < len(inner); k++ {
		if inner[k].Kind != CIdent {
			continue
		}
		vname := inner[k].Text
		val := next
		if k+2 < len(inner) && inner[k+1].Text == "=" {
			if v, ok := parseCInt(inner[k+2].Text); ok {
				val = v
				k += 2
			}
		}
		e.Values[vname] = val
		ix.EnumVals[vname] = val
		next = val + 1
		// Skip to next ','.
		for k < len(inner) && inner[k].Text != "," {
			k++
		}
	}
	ix.Enums = append(ix.Enums, e)
	return end
}

func parseCInt(text string) (uint64, bool) {
	text = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(text, "UL"), "U"), "u")
	var v uint64
	var err error
	if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
		_, err = fmt.Sscanf(text, "%v", &v)
	} else {
		_, err = fmt.Sscanf(text, "%d", &v)
	}
	return v, err == nil
}

// tryParseRegistration handles
// "static const struct TYPE NAME = { .field = value, ... };".
func (ix *Index) tryParseRegistration(file, src string, toks []CToken, i int) int {
	// Accept a run of qualifiers then "struct TYPE NAME = {".
	j := i
	for j < len(toks) && toks[j].Kind == CIdent &&
		(toks[j].Text == "static" || toks[j].Text == "const" || toks[j].Text == "__read_mostly") {
		j++
	}
	if j >= len(toks) || toks[j].Text != "struct" {
		return i
	}
	j++
	if j+2 >= len(toks) || toks[j].Kind != CIdent || toks[j+1].Kind != CIdent || toks[j+2].Text != "=" {
		return i
	}
	structType, varName := toks[j].Text, toks[j+1].Text
	j += 3
	if j >= len(toks) || toks[j].Text != "{" {
		return i
	}
	end := matchParen(toks, j, "{", "}")
	if end > len(toks) {
		return i
	}
	reg := &Registration{
		VarName: varName, StructType: structType, File: file,
		Fields: map[string]string{},
	}
	rawEnd := toks[end-1].Off + 1
	if end < len(toks) && toks[end].Text == ";" {
		rawEnd = toks[end].Off + 1
	}
	reg.Raw = src[toks[i].Off:rawEnd]
	// Walk designated initializers: '.' IDENT '=' value-tokens (',' | '}').
	// An unterminated initializer runs to the end of the text.
	inner := toks[j+1 : max(end-1, j+1)]
	for k := 0; k < len(inner); k++ {
		if inner[k].Text != "." || k+2 >= len(inner) || inner[k+1].Kind != CIdent || inner[k+2].Text != "=" {
			continue
		}
		fname := inner[k+1].Text
		k += 3
		// The value runs to the next top-level ','.
		start, depth := k, 0
	value:
		for ; k < len(inner); k++ {
			if inner[k].Kind != CPunct {
				continue
			}
			switch inner[k].Text {
			case "(", "{", "[":
				depth++
			case ")", "}", "]":
				depth--
			case ",":
				if depth == 0 {
					break value
				}
			}
		}
		reg.Fields[fname] = joinTexts(inner[start:k], false)
	}
	if len(reg.Fields) > 0 {
		ix.Regs = append(ix.Regs, reg)
	}
	return end
}

// tryParseFunction handles "[static] rettype name(params) { body }".
func (ix *Index) tryParseFunction(file, src string, toks []CToken, i int, comment string) int {
	// Scan forward from i over type tokens until IDENT '(' is found;
	// allow at most 6 tokens of return type to bound false positives.
	static := false
	j := i
	limit := i + 7
	for j < len(toks) && j < limit {
		t := toks[j]
		if t.Kind == CPunct && t.Text == "*" {
			j++
			continue
		}
		if t.Kind != CIdent {
			return i
		}
		if t.Text == "static" {
			static = true
		}
		if j+1 < len(toks) && toks[j+1].Text == "(" && j > i {
			break
		}
		j++
	}
	if j >= len(toks) || j >= limit || j+1 >= len(toks) || toks[j+1].Text != "(" {
		return i
	}
	name := toks[j].Text
	if name == "if" || name == "for" || name == "while" || name == "switch" || name == "return" || name == "sizeof" {
		return i
	}
	closeParen := matchParen(toks, j+1, "(", ")")
	if closeParen >= len(toks) || toks[closeParen].Text != "{" {
		return i
	}
	endBody := matchParen(toks, closeParen, "{", "}")
	if endBody > len(toks) {
		return i
	}
	fn := &Function{
		Name: name, File: file, Static: static, Comment: comment,
		Body: src[toks[closeParen].Off : toks[endBody-1].Off+1],
		Raw:  src[toks[i].Off : toks[endBody-1].Off+1],
	}
	ix.Functions[name] = fn
	return endBody - 1
}
