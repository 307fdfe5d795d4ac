package llm

import (
	"context"
	"fmt"
	"strings"

	"kernelgpt/internal/ccode"
	"kernelgpt/internal/syzlang"
)

// SimModel is the deterministic simulated analysis LLM. Each
// completion genuinely analyzes the C source embedded in the prompt
// (re-parsing it with the ccode package — the model "reads" only what
// the prompt contains), filtered through the model's capability
// profile, with seeded fallibility injecting repairable and
// unrepairable specification errors. Completions are pure functions
// of (seed, prompt), so SimModel is safe for concurrent use: the only
// mutable state is the mutex-protected usage counter.
type SimModel struct {
	name  string
	caps  Capability
	seed  uint64
	usage UsageCounter
}

// NewSim returns a simulated model. The seed makes fallibility
// deterministic per campaign.
func NewSim(name string, seed uint64) *SimModel {
	return &SimModel{name: name, caps: ProfileFor(name), seed: seed}
}

// Name implements Client.
func (m *SimModel) Name() string { return m.name }

// Usage implements Client.
func (m *SimModel) Usage() Usage { return m.usage.Snapshot() }

// chance returns a deterministic pseudo-random draw in [0,1) keyed by
// the model seed and a string.
func (m *SimModel) chance(key string) float64 {
	h := m.seed ^ 0xcbf29ce484222325
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h%1_000_000) / 1_000_000
}

// Complete implements Client. The prompt is the request's messages
// read in place, never joined: a section is read from the first
// message with a line that starts with its marker, up to the next
// "## " heading or the end of that message, so a section never runs
// on into the next message. core's prompts are [system, instruction,
// body, few-shot] (a repair prompt has no few-shot message): the
// instruction and few-shot messages are constants each stage shares,
// and the body holds the Unknown and Source sections, or the Errors,
// Spec and Source sections of a repair. The instruction routes the
// prompt, its ASCII letters read in either case. The prompt costs
// (Σ(len(content)+1)+3)/4 tokens, CountTokens of the messages joined
// one per line.
func (m *SimModel) Complete(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	msgs := req.Messages
	size := 0
	for _, msg := range msgs {
		size += len(msg.Content) + 1
	}
	ptoks := (size + 3) / 4

	instr := section(msgs, SecInstruction)
	src := section(msgs, SecSource)
	// Context window: content beyond the window is simply not seen.
	if ptoks > m.caps.ContextTokens {
		keep := m.caps.ContextTokens * 4
		if keep < len(src) {
			src = src[:keep]
		}
	}
	// Attention dilution: the larger the prompt relative to the
	// window, the more likely any individual item is overlooked —
	// the mechanism behind the all-in-one ablation's losses.
	dilute := 0.0
	if over := ptoks - 6000; over > 0 {
		dilute = float64(over) / float64(m.caps.ContextTokens)
		if dilute > 0.85 {
			dilute = 0.85
		}
	}

	var resp string
	switch {
	case containsFold(instr, "repair"):
		resp = m.repair(msgs)
	case containsFold(instr, "dependency analysis"):
		resp = m.analyzeDeps(msgs, src)
	case containsFold(instr, "type definitions"):
		resp = m.analyzeTypes(msgs, src, dilute)
	default: // identifier deduction (also the all-in-one first half)
		resp = m.analyzeIdent(msgs, src, dilute)
	}
	call := Usage{Calls: 1, PromptTokens: ptoks, CompletionTokens: CountTokens(resp)}
	m.usage.Record(call)
	return Response{Text: resp, Usage: call}, nil
}

// containsFold reports whether s contains the lower-case ASCII word,
// with s's ASCII letters read in lower case: the instruction routes
// its prompt whatever case it is written in, without a lowered copy.
func containsFold(s, word string) bool {
	for i := 0; i+len(word) <= len(s); i++ {
		j := 0
		for j < len(word) {
			c := s[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != word[j] {
				break
			}
			j++
		}
		if j == len(word) {
			return true
		}
	}
	return false
}

// section returns the body of the named prompt section by the rule
// Complete documents.
func section(msgs []Message, marker string) string {
	for _, msg := range msgs {
		if body, ok := extractSection(msg.Content, marker); ok {
			return body
		}
	}
	return ""
}

// --- stage 1: identifier deduction ---

func (m *SimModel) analyzeIdent(msgs []Message, src string, dilute float64) string {
	ix := ccode.NewIndex(map[string]string{"prompt.c": src})
	r := &IdentResult{}
	unknowns := unknownRefs(section(msgs, SecUnknown))

	// Device/socket discovery happens when registrations are present.
	m.discoverRegistration(ix, r)

	// Determine the dispatch function to analyze: the requested
	// unknown FUNC, else the fops/proto_ops entry.
	var targets []UnknownRef
	for _, u := range unknowns {
		if u.Kind == "FUNC" {
			targets = append(targets, u)
		}
	}
	if len(targets) == 0 {
		if entry := m.entryFunction(ix); entry != "" {
			targets = append(targets, UnknownRef{Kind: "FUNC", Name: entry})
		}
	}
	seen := map[string]bool{}
	for len(targets) > 0 {
		u := targets[0]
		targets = targets[1:]
		if seen[u.Name] {
			continue
		}
		seen[u.Name] = true
		fn := ix.Function(u.Name)
		if fn == nil {
			// Not in the prompt: genuinely unknown, ask for it.
			r.Unknown = append(r.Unknown, u)
			continue
		}
		more := m.analyzeDispatchFn(ix, fn, u, r)
		targets = append(targets, more...)
	}

	// Fallibility: drop commands, corrupt one macro name.
	r.Cmds = m.dropAndCorrupt(r.Cmds, dilute)
	return FormatIdentResult(r)
}

// discoverRegistration fills device path / socket family info from
// registrations visible in the prompt.
func (m *SimModel) discoverRegistration(ix *ccode.Index, r *IdentResult) {
	for _, reg := range ix.Registrations("miscdevice") {
		node, hasNode := reg.Fields["nodename"]
		if hasNode && m.caps.Nodename {
			if s, ok := ix.EvalString(node); ok {
				r.DevicePath = "/dev/" + s
				continue
			}
		}
		if name, ok := reg.Fields["name"]; ok {
			if s, ok := ix.EvalString(name); ok {
				r.DevicePath = "/dev/" + s
			}
		}
	}
	// Char devices: register_chrdev(MAJOR, "name", &fops) inside an
	// init function. A registration wins over a miscdevice name; of
	// several, the lexicographically smallest path does.
	chrdev := ""
	for _, fn := range ix.Functions {
		if !strings.Contains(fn.Body, "register_chrdev") {
			continue
		}
		info := fn.Info()
		for _, calls := range [][]ccode.CallSite{info.Calls, info.Delegations} {
			for _, call := range calls {
				if call.Name != "register_chrdev" || len(call.Args) < 3 {
					continue
				}
				for _, a := range call.Args {
					if !strings.HasPrefix(a, `"`) {
						continue
					}
					path := "/dev/" + ccode.StringValue(strings.ReplaceAll(a, " ", ""))
					if chrdev == "" || path < chrdev {
						chrdev = path
					}
				}
			}
		}
	}
	if chrdev != "" {
		r.DevicePath = chrdev
	}
	for _, reg := range ix.Registrations("proto_ops") {
		r.Domain = strings.TrimSpace(reg.Fields["family"])
		// Socket calls implemented by this family.
		for _, call := range []string{"bind", "connect", "sendmsg", "recvmsg", "listen", "accept", "poll"} {
			fnName, ok := reg.Fields[call]
			if !ok {
				continue
			}
			decl := SockCallDecl{Call: call, Fn: strings.TrimSpace(fnName)}
			if fn := ix.Function(decl.Fn); fn != nil {
				decl.Addr = sockaddrCast(fn.Body)
			} else {
				r.Unknown = append(r.Unknown, UnknownRef{
					Kind: "FUNC", Name: decl.Fn, Usage: "sockcall " + call,
				})
			}
			r.Calls = append(r.Calls, decl)
		}
	}
}

// sockaddrCast finds "(struct X *)uaddr" casts in a bind/connect
// body.
func sockaddrCast(body string) string {
	idx := strings.Index(body, "struct ")
	for idx >= 0 {
		rest := body[idx+len("struct "):]
		end := 0
		for end < len(rest) && (rest[end] == '_' || rest[end] >= 'a' && rest[end] <= 'z' || rest[end] >= '0' && rest[end] <= '9') {
			end++
		}
		name := rest[:end]
		if strings.HasPrefix(name, "sockaddr_") {
			return name
		}
		next := strings.Index(rest, "struct ")
		if next < 0 {
			return ""
		}
		idx += len("struct ") + next
	}
	return ""
}

// entryFunction finds the ioctl/setsockopt entry point from a
// registration in the prompt.
func (m *SimModel) entryFunction(ix *ccode.Index) string {
	for _, reg := range ix.Registrations("file_operations") {
		if fn, ok := reg.Fields["unlocked_ioctl"]; ok {
			return strings.TrimSpace(fn)
		}
	}
	for _, reg := range ix.Registrations("proto_ops") {
		if fn, ok := reg.Fields["setsockopt"]; ok {
			return strings.TrimSpace(fn)
		}
	}
	return ""
}

// analyzeDispatchFn analyzes one function: switch dispatch, lookup
// tables, or delegation. Returns further functions to analyze (when
// their source is already in the prompt).
func (m *SimModel) analyzeDispatchFn(ix *ccode.Index, fn *ccode.Function, req UnknownRef, r *IdentResult) []UnknownRef {
	info := fn.Info()
	modified := bodyModifiesIdent(info)

	// Level check for sockopt dispatchers: "if (level != SOL_X)".
	if lvl := levelCheck(fn.Body); lvl != "" {
		r.Level = lvl
	}

	if sw := anySwitch(info); sw != nil {
		m.analyzeSwitch(ix, sw, modified, r)
		return nil
	}
	// Table lookup dispatch (the dm pattern).
	if table := scanIoctlTable(srcOf(ix)); len(table) > 0 && calledLookup(info) {
		if m.caps.LookupTable {
			arg, argInt := copiedStruct(info.CopyFromUser, info.Calls)
			for _, ent := range table {
				macro := ent.nrMacro
				if modified && m.caps.IdentifierMod {
					if full, ok := invertNr(ix, ent.nrMacro); ok {
						macro = full
					}
				}
				r.Cmds = append(r.Cmds, CmdDecl{
					Macro: macro, Handler: ent.fn, Arg: arg, ArgInt: argInt,
					Dir: m.dirOf(ix, macro),
				})
			}
		}
		return nil
	}
	// Whole-body delegation: follow if present, else report unknown.
	for _, d := range info.Delegations {
		if inner := ix.Function(d.Name); inner != nil {
			return []UnknownRef{{Kind: "FUNC", Name: d.Name, Usage: d.Raw}}
		}
		r.Unknown = append(r.Unknown, UnknownRef{Kind: "FUNC", Name: d.Name, Usage: d.Raw})
	}
	// Socket call handlers requested with usage "sockcall <name>".
	if call, ok := strings.CutPrefix(req.Usage, "sockcall "); ok {
		r.Calls = append(r.Calls, SockCallDecl{
			Call: strings.TrimSpace(call),
			Addr: sockaddrCast(fn.Body),
			Fn:   fn.Name,
		})
		return nil
	}
	// Worker function analysis (socket option workers reached via
	// usage "opt MACRO").
	if opt, ok := strings.CutPrefix(req.Usage, "opt "); ok {
		arg, argInt := copiedStruct(info.CopyFromUser, info.Calls)
		r.Cmds = append(r.Cmds, CmdDecl{
			Macro: strings.TrimSpace(opt), Handler: fn.Name,
			Arg: arg, ArgInt: argInt, Dir: "in", Plain: true,
		})
	}
	return nil
}

func srcOf(ix *ccode.Index) string {
	for _, s := range ix.Files() {
		return s
	}
	return ""
}

func bodyModifiesIdent(info *ccode.BodyInfo) bool {
	for _, rhs := range info.Assigns {
		if strings.Contains(rhs, "_IOC_NR") {
			return true
		}
	}
	for i := range info.Switches {
		if strings.Contains(info.Switches[i].Expr, "_IOC_NR") {
			return true
		}
	}
	return false
}

func anySwitch(info *ccode.BodyInfo) *ccode.SwitchInfo {
	if len(info.Switches) == 0 {
		return nil
	}
	return &info.Switches[0]
}

func calledLookup(info *ccode.BodyInfo) bool {
	for _, c := range info.Calls {
		if strings.Contains(c.Name, "lookup_ioctl") {
			return true
		}
	}
	return false
}

// copiedStruct inspects copy_from_user/copy_from_sockptr destinations
// given a body's CopyFromUser and its calls in source order (all of
// them, or only its user copies: no other call is read).
func copiedStruct(copyFromUser []string, calls []ccode.CallSite) (arg string, argInt bool) {
	if len(copyFromUser) > 0 {
		return copyFromUser[0], false
	}
	for _, c := range calls {
		if c.Name == "copy_from_sockptr" {
			for _, a := range c.Args {
				if i := strings.Index(a, "struct "); i >= 0 {
					name := strings.Fields(a[i+len("struct "):])[0]
					return name, false
				}
				if strings.Contains(a, "sizeof ( int )") || strings.Contains(a, "sizeof(int)") {
					return "", true
				}
			}
		}
		if c.Name == "get_user" {
			return "", true
		}
	}
	return "", false
}

func levelCheck(body string) string {
	idx := strings.Index(body, "level !=")
	if idx < 0 {
		return ""
	}
	rest := strings.TrimSpace(body[idx+len("level !="):])
	end := 0
	for end < len(rest) && (rest[end] == '_' || rest[end] >= 'A' && rest[end] <= 'Z' || rest[end] >= '0' && rest[end] <= '9') {
		end++
	}
	return rest[:end]
}

// analyzeSwitch converts switch cases to command declarations.
func (m *SimModel) analyzeSwitch(ix *ccode.Index, sw *ccode.SwitchInfo, modified bool, r *IdentResult) {
	for _, cs := range sw.Cases {
		label := strings.TrimSpace(cs.Label)
		macro := label
		if modified {
			if m.caps.IdentifierMod {
				if full, ok := m.invert(ix, label); ok {
					macro = full
				}
			}
			// Without the capability the raw (modified) label is
			// reported — the wrong-identifier failure of §5.1.3.
		}
		decl := CmdDecl{Macro: macro, Dir: m.dirOf(ix, macro)}
		if len(cs.Calls) > 0 {
			for _, c := range cs.Calls {
				if c != "copy_from_user" && c != "get_user" && c != "put_user" {
					decl.Handler = c
				}
			}
		}
		decl.Arg, decl.ArgInt = copiedStruct(cs.CopyFromUser, cs.Copies)
		decl.Plain = isPlainOption(ix, macro)
		if decl.Handler != "" && decl.Arg == "" && !decl.ArgInt {
			// Socket-style dispatch: the worker holds the payload
			// logic; request it, tagging the macro for correlation.
			r.Unknown = append(r.Unknown, UnknownRef{
				Kind: "FUNC", Name: decl.Handler, Usage: "opt " + macro,
			})
			if decl.Plain {
				continue // resolved when the worker arrives
			}
		}
		r.Cmds = append(r.Cmds, decl)
	}
}

// isPlainOption reports whether a macro is a small raw value (sockopt
// style) rather than an _IOC encoding.
func isPlainOption(ix *ccode.Index, macro string) bool {
	v, ok := ix.ResolveMacroInt(macro)
	if !ok {
		return false
	}
	return v < 1<<16
}

// dirOf recovers the data direction from the _IOC macro text (the
// way a reader does), falling back to the numeric encoding.
func (m *SimModel) dirOf(ix *ccode.Index, macro string) string {
	if mac := ix.MacroDef(macro); mac != nil {
		val := strings.TrimSpace(mac.Value)
		switch {
		case strings.HasPrefix(val, "_IOWR"):
			return "inout"
		case strings.HasPrefix(val, "_IOW"):
			return "in"
		case strings.HasPrefix(val, "_IOR"):
			return "out"
		case strings.HasPrefix(val, "_IO"):
			return "none"
		}
	}
	v, ok := ix.ResolveMacroInt(macro)
	if !ok || v < 1<<16 {
		return "in"
	}
	switch ccode.IOCDir(v) {
	case 1:
		return "in"
	case 2:
		return "out"
	case 3:
		return "inout"
	}
	return "none"
}

// invert resolves a modified identifier back to its userspace macro;
// occasionally (the §5.1.3 audit's "3 wrong identifier values") even
// a strong model picks a neighboring macro — a semantic error
// validation cannot catch.
func (m *SimModel) invert(ix *ccode.Index, nrLabel string) (string, bool) {
	full, ok := invertNr(ix, nrLabel)
	if !ok {
		return "", false
	}
	if m.chance("wrongid:"+nrLabel) < 0.025 {
		if other, ok2 := neighborIoctlMacro(ix, full); ok2 {
			return other, true
		}
	}
	return full, true
}

// neighborIoctlMacro returns a different _IO-encoded macro from the
// same header, if any.
func neighborIoctlMacro(ix *ccode.Index, not string) (string, bool) {
	return minIoctlMacro(ix, not, func(*ccode.Macro) bool { return true })
}

// invertNr finds the full _IOC-encoded macro whose nr equals the
// given nr label — first textually (the _IO* invocation names the nr
// macro as its second argument, which is how a human reads it), then
// numerically.
//
// Several macros can match either way; the lexicographically smallest
// name wins, so the answer does not depend on map iteration order.
func invertNr(ix *ccode.Index, nrLabel string) (string, bool) {
	if name, ok := minIoctlMacro(ix, nrLabel, func(mac *ccode.Macro) bool {
		return ccode.HasIdent(mac.Value, nrLabel)
	}); ok {
		return name, true
	}
	nrVal, ok := ix.ResolveMacroInt(nrLabel)
	if !ok {
		return "", false
	}
	return minIoctlMacro(ix, nrLabel, func(mac *ccode.Macro) bool {
		v, ok := ix.ResolveMacroInt(mac.Name)
		return ok && ccode.IOCNr(v) == nrVal
	})
}

// minIoctlMacro returns the lexicographically smallest object-like
// _IO-encoded macro other than not that satisfies match.
func minIoctlMacro(ix *ccode.Index, not string, match func(*ccode.Macro) bool) (string, bool) {
	best, found := "", false
	for name, mac := range ix.Macros {
		if name == not || len(mac.Params) > 0 || !strings.Contains(mac.Value, "_IO") {
			continue
		}
		if (!found || name < best) && match(mac) {
			best, found = name, true
		}
	}
	return best, found
}

// dropAndCorrupt applies the fallibility model to stage-1 output.
func (m *SimModel) dropAndCorrupt(cmds []CmdDecl, dilute float64) []CmdDecl {
	var out []CmdDecl
	for _, c := range cmds {
		if m.chance("drop:"+c.Macro) < m.caps.DropRate+dilute {
			continue
		}
		out = append(out, c)
	}
	if len(out) > 0 {
		key := "corrupt:" + out[0].Macro
		if m.chance(key) < m.caps.ErrorRate/2 {
			idx := int(m.chance(key+":idx")*1000) % len(out)
			out[idx].Macro += "_FIXME"
		}
	}
	return out
}

// --- stage 2: type recovery ---

func (m *SimModel) analyzeTypes(msgs []Message, src string, dilute float64) string {
	ix := ccode.NewIndex(map[string]string{"prompt.c": src})
	var wanted []string
	for _, u := range unknownRefs(section(msgs, SecUnknown)) {
		if u.Kind == "TYPE" {
			wanted = append(wanted, u.Name)
		}
	}
	r := &TypeResult{}
	var defs strings.Builder
	emitted := map[string]bool{}
	for len(wanted) > 0 {
		name := wanted[0]
		wanted = wanted[1:]
		if emitted[name] {
			continue
		}
		emitted[name] = true
		if m.chance("losetype:"+name) < dilute {
			continue // attention dilution: the type is overlooked
		}
		st := ix.StructDef(name)
		if st == nil {
			r.Unknown = append(r.Unknown, UnknownRef{Kind: "TYPE", Name: name})
			continue
		}
		text, nested := m.structToSyzlang(ix, st, src)
		defs.WriteString(text)
		defs.WriteByte('\n')
		wanted = append(wanted, nested...)
	}
	r.Defs = m.injectTypeErrors(defs.String())
	return FormatTypeResult(r)
}

// structToSyzlang converts one C struct to a syzlang definition using
// the capability-gated semantic analysis.
func (m *SimModel) structToSyzlang(ix *ccode.Index, st *ccode.Struct, src string) (string, []string) {
	var b strings.Builder
	var nested []string
	fmt.Fprintf(&b, "%s {\n", st.Name)
	for _, f := range st.Fields {
		typ := m.fieldType(ix, st, f, src, &nested)
		fmt.Fprintf(&b, "\t%s\t%s", f.Name, typ)
		if m.isOutField(f) {
			b.WriteString("\t(out)")
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.String(), nested
}

func (m *SimModel) isOutField(f ccode.StructField) bool {
	c := strings.ToLower(f.Comment)
	return strings.Contains(c, "written back") || strings.HasPrefix(c, "out:")
}

var cToSyz = map[string]string{
	"char": "int8", "__u8": "int8", "__s8": "int8",
	"__u16": "int16", "__s16": "int16", "short": "int16",
	"__u32": "int32", "__s32": "int32", "int": "int32", "unsigned": "int32",
	"__u64": "int64", "__s64": "int64", "long": "int64",
}

func (m *SimModel) fieldType(ix *ccode.Index, st *ccode.Struct, f ccode.StructField, src string, nested *[]string) string {
	ctype := strings.TrimSpace(f.Type)
	if inner, ok := strings.CutPrefix(ctype, "struct "); ok {
		inner = strings.TrimSpace(strings.TrimSuffix(inner, "*"))
		*nested = append(*nested, inner)
		switch {
		case f.IsArray && strings.TrimSpace(f.Array) == "":
			return fmt.Sprintf("array[%s]", inner)
		case f.IsArray:
			return fmt.Sprintf("array[%s, %s]", inner, f.Array)
		}
		return inner
	}
	base, ok := cToSyz[ctype]
	if !ok {
		base = "int32"
	}
	// Length relation from the field comment (the Figure 5 insight).
	// Even the strong models occasionally treat the count field as a
	// plain integer — the "wrong types" the §5.1.3 audit reports.
	if m.caps.LenRelation && m.chance("lenmiss:"+st.Name+":"+f.Name) >= 0.15 {
		if target, ok := lenTargetFromComment(f.Comment); ok && st.Fields != nil {
			return fmt.Sprintf("len[%s, %s]", target, base)
		}
	}
	if f.IsArray {
		if strings.TrimSpace(f.Array) == "" {
			return fmt.Sprintf("array[%s]", base)
		}
		if n, ok := ix.EvalInt(f.Array); ok {
			return fmt.Sprintf("array[%s, %d]", base, n)
		}
		return fmt.Sprintf("array[%s]", base)
	}
	// Constant-enforced fields: "addr->f != MACRO" rejection checks
	// pin the field to the macro value (address families).
	if mac, ok := constFromCode(src, f.Name); ok {
		return fmt.Sprintf("const[%s, %s]", mac, base)
	}
	// Ranges: explicit validation code first, then comments.
	if lo, hi, ok := rangeFromCode(src, f.Name); ok {
		return fmt.Sprintf("%s[%d:%d]", base, lo, hi)
	}
	if m.caps.CommentHints {
		if lo, hi, ok := rangeFromComment(f.Comment); ok {
			return fmt.Sprintf("%s[%d:%d]", base, lo, hi)
		}
	}
	return base
}

func lenTargetFromComment(comment string) (string, bool) {
	const marker = "number of entries in "
	if i := strings.Index(strings.ToLower(comment), marker); i >= 0 {
		target := strings.TrimSpace(comment[i+len(marker):])
		if j := strings.IndexAny(target, " .,;"); j >= 0 {
			target = target[:j]
		}
		if target != "" {
			return target, true
		}
	}
	return "", false
}

// rangeFromCode scans for "param->f < lo || param->f > hi" validation.
func rangeFromCode(src, field string) (lo, hi uint64, ok bool) {
	pat := "param->" + field + " < "
	i := strings.Index(src, pat)
	if i < 0 {
		return 0, 0, false
	}
	rest := src[i+len(pat):]
	lo, n := scanUint(rest)
	if n == 0 {
		return 0, 0, false
	}
	pat2 := "param->" + field + " > "
	j := strings.Index(rest, pat2)
	if j < 0 {
		return 0, 0, false
	}
	hi, n2 := scanUint(rest[j+len(pat2):])
	if n2 == 0 {
		return 0, 0, false
	}
	return lo, hi, true
}

// constFromCode scans for "->f != MACRO)" rejection checks that pin a
// field to a single constant.
func constFromCode(src, field string) (string, bool) {
	pat := "->" + field + " != "
	i := strings.Index(src, pat)
	if i < 0 {
		return "", false
	}
	rest := src[i+len(pat):]
	end := 0
	for end < len(rest) && (rest[end] == '_' || rest[end] >= 'A' && rest[end] <= 'Z' || rest[end] >= '0' && rest[end] <= '9') {
		end++
	}
	mac := rest[:end]
	if mac == "" || mac[0] >= '0' && mac[0] <= '9' {
		return "", false
	}
	return mac, true
}

// rangeFromComment parses "valid range A..B" and "... (N)" styles.
func rangeFromComment(comment string) (lo, hi uint64, ok bool) {
	c := strings.ToLower(comment)
	if i := strings.Index(c, "valid range "); i >= 0 {
		rest := c[i+len("valid range "):]
		lo, n := scanUint(rest)
		if n > 0 {
			rest = rest[n:]
			rest = strings.TrimPrefix(rest, "..")
			hi, n2 := scanUint(rest)
			if n2 > 0 {
				return lo, hi, true
			}
		}
	}
	if strings.Contains(c, "not exceed") || strings.Contains(c, "at most") {
		if i := strings.LastIndexByte(c, '('); i >= 0 {
			if v, n := scanUint(c[i+1:]); n > 0 {
				return 0, v, true
			}
		}
	}
	return 0, 0, false
}

func scanUint(s string) (uint64, int) {
	i := 0
	var v uint64
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		v = v*10 + uint64(s[i]-'0')
		i++
	}
	return v, i
}

// injectTypeErrors applies the fallibility model to stage-2 output:
// one deterministic, validator-visible error per unlucky handler.
func (m *SimModel) injectTypeErrors(defs string) string {
	if defs == "" {
		return defs
	}
	key := "typerr:" + firstIdent(defs)
	if m.chance(key) >= m.caps.ErrorRate {
		return defs
	}
	switch int(m.chance(key+":kind")*1000) % 3 {
	case 0:
		// Misspell the first int32 → undefined type "int3".
		return strings.Replace(defs, "int32", "int3", 1)
	case 1:
		// Typo a len target.
		if i := strings.Index(defs, "len["); i >= 0 {
			j := strings.IndexByte(defs[i:], ',')
			if j > 0 {
				return defs[:i+j] + "x" + defs[i+j:]
			}
		}
		return strings.Replace(defs, "int32", "int3", 1)
	default:
		// Append an undefined nested reference to the first field.
		if i := strings.Index(defs, "\n\t"); i >= 0 {
			return strings.Replace(defs, "int8", "int8_undef_t", 1)
		}
		return strings.Replace(defs, "int32", "int3", 1)
	}
}

func firstIdent(s string) string {
	end := 0
	for end < len(s) && (s[end] == '_' || s[end] >= 'a' && s[end] <= 'z' || s[end] >= '0' && s[end] <= '9') {
		end++
	}
	return s[:end]
}

// --- stage 3: dependency analysis ---

func (m *SimModel) analyzeDeps(msgs []Message, src string) string {
	r := &DepResult{}
	if !m.caps.Dependencies {
		return FormatDepResult(r)
	}
	ix := ccode.NewIndex(map[string]string{"prompt.c": src})
	for _, u := range unknownRefs(section(msgs, SecUnknown)) {
		if u.Kind != "FUNC" {
			continue
		}
		fn := ix.Function(u.Name)
		if fn == nil {
			continue
		}
		info := fn.Info()
		for _, calls := range [][]ccode.CallSite{info.Calls, info.Delegations} {
			for _, call := range calls {
				if call.Name != "anon_inode_getfd" || len(call.Args) < 2 {
					continue
				}
				tag := ccode.StringValue(strings.ReplaceAll(call.Args[0], " ", ""))
				fops := strings.TrimPrefix(strings.ReplaceAll(call.Args[1], " ", ""), "&")
				r.Deps = append(r.Deps, DepDecl{Cmd: u.Usage, Creates: tag, Fops: fops})
			}
		}
	}
	return FormatDepResult(r)
}

// --- repair ---

// repair fixes the specification using the validator's error
// messages, exactly the §3.2 loop: each error is matched to its
// description and corrected (or, for hard cases, left broken /
// dropped).
func (m *SimModel) repair(msgs []Message) string {
	spec := section(msgs, SecSpec)
	errsText := section(msgs, SecErrors)
	if spec == "" {
		return "## Repaired Specification\n"
	}
	key := "repair:" + firstErrorRef(errsText)
	if m.chance(key) >= m.caps.RepairSkill || m.chance(key+":hard") < m.caps.HardErrorRate {
		// The model fails to see the problem and echoes the spec.
		return "## Repaired Specification\n" + spec + "\n"
	}
	// AST-level repair: parse the spec, correct every recognizable
	// error class, and re-render. Falls back to textual fixes when
	// the spec does not parse.
	fixed := m.repairAST(spec)
	// Anything still failing validation gets its declaration dropped
	// by the caller on the next validation round.
	return "## Repaired Specification\n" + fixed + "\n"
}

func firstErrorRef(errs string) string {
	return firstLine(errs)
}

// repairAST applies every known correction to the parsed spec:
// corrupted macro suffixes, misspelled scalar types, undefined
// sentinel types, and broken len targets.
func (m *SimModel) repairAST(spec string) string {
	f, errs := syzlang.Parse(spec)
	if len(errs) > 0 {
		s := strings.ReplaceAll(spec, "_FIXME", "")
		s = strings.ReplaceAll(s, "int8_undef_t", "int8")
		return s
	}
	fixType := func(te *syzlang.TypeExpr) {
		walkType(te, func(t *syzlang.TypeExpr) {
			t.Ident = strings.TrimSuffix(t.Ident, "_FIXME")
			switch t.Ident {
			case "int3":
				t.Ident = "int32"
			case "int8_undef_t":
				t.Ident = "int8"
			}
		})
	}
	for _, sc := range f.Syscalls {
		sc.Variant = strings.TrimSuffix(sc.Variant, "_FIXME")
		for _, a := range sc.Args {
			fixType(a.Type)
		}
	}
	for _, st := range f.Structs {
		for _, fl := range st.Fields {
			fixType(fl.Type)
		}
	}
	for _, u := range f.Unions {
		for _, fl := range u.Fields {
			fixType(fl.Type)
		}
	}
	for _, fl := range f.Flags {
		for i := range fl.Values {
			fl.Values[i].Name = strings.TrimSuffix(fl.Values[i].Name, "_FIXME")
		}
	}
	fixLenTargetsAST(f)
	return syzlang.Format(f)
}

// walkType visits a type expression tree.
func walkType(te *syzlang.TypeExpr, fn func(*syzlang.TypeExpr)) {
	if te == nil {
		return
	}
	fn(te)
	for _, a := range te.Args {
		if a.Type != nil {
			walkType(a.Type, fn)
		}
	}
}

// fixLenTargetsAST repoints broken len[] targets at a sibling array
// field.
func fixLenTargetsAST(f *syzlang.File) {
	for _, st := range f.Structs {
		names := map[string]bool{}
		arrayField := ""
		for _, fl := range st.Fields {
			names[fl.Name] = true
			if fl.Type.Ident == "array" && arrayField == "" {
				arrayField = fl.Name
			}
		}
		for _, fl := range st.Fields {
			te := fl.Type
			if (te.Ident != "len" && te.Ident != "bytesize") || len(te.Args) == 0 || te.Args[0].Type == nil {
				continue
			}
			if !names[te.Args[0].Type.Ident] && arrayField != "" {
				te.Args[0].Type.Ident = arrayField
			}
		}
	}
}

// tableEntry is one {nr, fn} pair of a dm-style ioctl lookup table.
type tableEntry struct {
	nrMacro string
	fn      string
}

// scanIoctlTable extracts the entries of a "_<x>_ioctls[] = { {NR,
// fn}, ... };" static dispatch table from raw source text.
func scanIoctlTable(src string) []tableEntry {
	idx := strings.Index(src, "_ioctls[] = {")
	if idx < 0 {
		return nil
	}
	rest := src[idx+len("_ioctls[] = {"):]
	if end := strings.Index(rest, "};"); end >= 0 {
		rest = rest[:end]
	}
	var out []tableEntry
	for _, line := range strings.Split(rest, "\n") {
		line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), ","))
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			continue
		}
		inner := strings.TrimSuffix(strings.TrimPrefix(line, "{"), "}")
		parts := strings.Split(inner, ",")
		if len(parts) != 2 {
			continue
		}
		out = append(out, tableEntry{
			nrMacro: strings.TrimSpace(parts[0]),
			fn:      strings.TrimSpace(parts[1]),
		})
	}
	return out
}
