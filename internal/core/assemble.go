package core

import (
	"context"
	"fmt"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/syzlang"
)

// assemble builds the syzlang file from the three stages' outputs.
func (g *Generator) assemble(h *corpus.Handler, ident *llm.IdentResult, typeDefs string, deps *llm.DepResult, res *Result) *syzlang.File {
	file := &syzlang.File{}
	hid := h.Ident()
	var resName string
	if h.Kind == corpus.KindSocket {
		resName = "sock_" + hid
	} else {
		resName = "fd_" + hid
	}
	file.Resources = append(file.Resources, &syzlang.ResourceDef{Name: resName, Base: "fd"})

	switch {
	case h.Kind == corpus.KindSocket:
		file.Syscalls = append(file.Syscalls, &syzlang.SyscallDef{
			CallName: "socket", Variant: hid,
			Args: []*syzlang.Field{
				mkField("domain", constOf(ident.Domain)),
				mkField("type", constInt(uint64(h.Socket.TypeVal))),
				mkField("proto", constInt(0)),
			},
			Ret: resName,
		})
	case h.Parent == "":
		if ident.DevicePath != "" {
			file.Syscalls = append(file.Syscalls, &syzlang.SyscallDef{
				CallName: "openat", Variant: hid,
				Args: []*syzlang.Field{
					mkField("fd", constOf("AT_FDCWD")),
					parseField("file", fmt.Sprintf("ptr[in, string[%q]]", ident.DevicePath)),
					mkField("flags", constOf("O_RDWR")),
					mkField("mode", constInt(0)),
				},
				Ret: resName,
			})
		}
	}

	// Map dependency results onto creator commands, declaring the
	// secondary resource here so the parent spec validates on its own
	// (the child handler's spec merges in later and deduplicates).
	depRet := map[string]string{}
	for _, d := range deps.Deps {
		child := g.Corpus.Handler(d.Creates)
		childRes := "fd_" + sanitizeIdent(d.Creates)
		if child != nil {
			childRes = "fd_" + child.Ident()
		}
		if depRet[d.Cmd] == "" {
			file.Resources = append(file.Resources, &syzlang.ResourceDef{Name: childRes, Base: "fd"})
		}
		depRet[d.Cmd] = childRes
		res.Deps = append(res.Deps, d.Creates)
	}

	for _, c := range ident.Cmds {
		call := &syzlang.SyscallDef{Variant: c.Macro}
		if h.Kind == corpus.KindSocket {
			call.CallName = "setsockopt"
			call.Args = []*syzlang.Field{
				mkField("fd", named(resName)),
				mkField("level", constOf(ident.Level)),
				mkField("optname", constOf(c.Macro)),
			}
			optval := ptrTo("in", byteArray())
			switch {
			case c.Arg != "":
				optval = ptrTo(normDir(c.Dir), named(c.Arg))
			case c.ArgInt:
				optval = ptrTo("in", named("int32"))
			}
			call.Args = append(call.Args,
				mkField("optval", optval),
				mkField("optlen", lenOf("optval", "int32")))
		} else {
			call.CallName = "ioctl"
			call.Args = []*syzlang.Field{
				mkField("fd", named(resName)),
				mkField("cmd", constOf(c.Macro)),
			}
			switch {
			case c.Arg != "":
				call.Args = append(call.Args, mkField("arg", ptrTo(normDir(c.Dir), named(c.Arg))))
			case c.ArgInt:
				call.Args = append(call.Args, mkField("arg", ptrTo("in", named("int32"))))
			}
			if ret, ok := depRet[c.Macro]; ok {
				call.Ret = ret
			}
		}
		file.Syscalls = append(file.Syscalls, call)
	}

	// Socket calls. The proto_ops sendmsg/recvmsg entries serve both
	// the msg and the to/from syscall forms.
	for _, sc := range ident.Calls {
		for _, callName := range expandSockCall(sc.Call) {
			file.Syscalls = append(file.Syscalls, g.sockCallDef(hid, resName, callName, sc.Addr))
		}
	}

	// Merge stage-2 type definitions (parsed leniently: the repair
	// loop deals with whatever validation finds).
	if typeDefs == "" {
		return file
	}
	defs, _ := syzlang.Parse(typeDefs)
	return syzlang.MergeDedup(file, defs)
}

func expandSockCall(call string) []string {
	switch call {
	case "sendmsg":
		return []string{"sendto", "sendmsg"}
	case "recvmsg":
		return []string{"recvfrom", "recvmsg"}
	}
	return []string{call}
}

func (g *Generator) sockCallDef(hid, resName, callName, addr string) *syzlang.SyscallDef {
	// addrPtr is built per use: fields never share type nodes.
	addrPtr := func() *syzlang.TypeExpr {
		if addr == "" {
			return ptrTo("in", byteArray())
		}
		return ptrTo("in", named(addr))
	}
	def := &syzlang.SyscallDef{CallName: callName, Variant: hid,
		Args: []*syzlang.Field{mkField("fd", named(resName))}}
	switch callName {
	case "bind", "connect":
		def.Args = append(def.Args,
			mkField("addr", addrPtr()),
			mkField("addrlen", lenOf("addr", "int32")))
	case "sendto", "recvfrom":
		dir := "in"
		if callName == "recvfrom" {
			dir = "out"
		}
		def.Args = append(def.Args,
			mkField("buf", ptrTo(dir, byteArray())),
			mkField("len", lenOf("buf", "intptr")),
			mkField("f", constInt(0)),
			mkField("addr", addrPtr()),
			mkField("addrlen", lenOf("addr", "int32")))
	case "listen":
		def.Args = append(def.Args, mkField("backlog", &syzlang.TypeExpr{Ident: "int32",
			Args: []*syzlang.TypeArg{{HasRange: true, Min: 0, Max: 128}}}))
	case "accept":
		def.Args = append(def.Args,
			mkField("peer", ptrTo("out", byteArray())),
			mkField("peerlen", lenOf("peer", "int32")))
		def.Ret = resName
	case "sendmsg":
		def.Args = append(def.Args,
			mkField("msg", ptrTo("in", byteArray())), mkField("f", constInt(0)))
	case "recvmsg":
		def.Args = append(def.Args,
			mkField("msg", ptrTo("out", byteArray())), mkField("f", constInt(0)))
	case "poll":
		def.Args = append(def.Args, mkField("timeout", named("int32")))
	}
	return def
}

// Type-expression constructors. assemble knows the shape of every
// argument it emits, so it builds the tree instead of printing the
// type for the parser to read back; only the names placed at the
// leaves may come from the model.

// named is the bare type NAME: a scalar, a struct or a resource.
func named(name string) *syzlang.TypeExpr { return &syzlang.TypeExpr{Ident: name} }

// A constructed IDENT[NAME] or IDENT[NAME, T] is one allocation: the
// node, its argument slots and the bare NAME.
type (
	oneName struct {
		te, name syzlang.TypeExpr
		val      syzlang.TypeArg
		args     [1]*syzlang.TypeArg
	}
	nameAndType struct {
		te, name syzlang.TypeExpr
		vals     [2]syzlang.TypeArg
		args     [2]*syzlang.TypeArg
	}
)

// ofName is IDENT[NAME].
func ofName(ident, name string) *syzlang.TypeExpr {
	n := &oneName{te: syzlang.TypeExpr{Ident: ident}, name: syzlang.TypeExpr{Ident: name}}
	n.val.Type = &n.name
	n.args[0] = &n.val
	n.te.Args = n.args[:]
	return &n.te
}

// ofNameAndType is IDENT[NAME, T].
func ofNameAndType(ident, name string, t *syzlang.TypeExpr) *syzlang.TypeExpr {
	n := &nameAndType{te: syzlang.TypeExpr{Ident: ident}, name: syzlang.TypeExpr{Ident: name}}
	n.vals[0].Type = &n.name
	n.vals[1].Type = t
	n.args = [2]*syzlang.TypeArg{&n.vals[0], &n.vals[1]}
	n.te.Args = n.args[:]
	return &n.te
}

// constOf is const[NAME]; a name the model left out is const[0].
func constOf(name string) *syzlang.TypeExpr {
	if name == "" {
		return constInt(0)
	}
	return ofName("const", name)
}

// constInt is const[V].
func constInt(v uint64) *syzlang.TypeExpr {
	return &syzlang.TypeExpr{Ident: "const", Args: []*syzlang.TypeArg{{HasInt: true, Int: v}}}
}

// ptrTo is ptr[DIR, ELEM].
func ptrTo(dir string, elem *syzlang.TypeExpr) *syzlang.TypeExpr {
	return ofNameAndType("ptr", dir, elem)
}

// lenOf is len[FIELD, BASE].
func lenOf(field, base string) *syzlang.TypeExpr {
	return ofNameAndType("len", field, named(base))
}

// byteArray is array[int8], the untyped buffer.
func byteArray() *syzlang.TypeExpr { return ofName("array", "int8") }

// mkField names a constructed type. Every leaf must be a bare
// identifier; a model answer that is anything else (a number, an
// expression, garbage) sends the rendered type through the parser,
// exactly as if the model had written it out.
func mkField(name string, te *syzlang.TypeExpr) *syzlang.Field {
	if !bareIdents(te) {
		return parseField(name, te.String())
	}
	setPos(te, 1)
	return &syzlang.Field{Name: name, Type: te}
}

// parseField names a type given as text the model had a hand in.
func parseField(name, typ string) *syzlang.Field {
	te, err := syzlang.ParseTypeExpr(typ)
	if err != nil {
		// A bad expression becomes a buffer arg and will fail
		// validation (and enter the repair loop) rather than panicking.
		te = byteArray()
	}
	return &syzlang.Field{Name: name, Type: te}
}

// bareIdents reports whether every type name in the tree is a plain
// identifier, i.e. lexes as the single token the constructors assume.
func bareIdents(te *syzlang.TypeExpr) bool {
	if !isIdent(te.Ident) {
		return false
	}
	for _, a := range te.Args {
		if a.Type != nil && !bareIdents(a.Type) {
			return false
		}
	}
	return true
}

func isIdent(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return s != ""
}

// setPos gives a constructed tree the positions the parser assigns its
// canonical rendering starting at column col of line 1 (validation
// errors cite and sort by them), and returns the column after it.
func setPos(te *syzlang.TypeExpr, col int) int {
	te.Pos = syzlang.Pos{Line: 1, Col: col}
	col += len(te.Ident)
	if len(te.Args) == 0 {
		return col
	}
	for i, a := range te.Args {
		if col++; i > 0 {
			col++ // ", " where the first argument has "["
		}
		a.Pos = syzlang.Pos{Line: 1, Col: col}
		if a.Type != nil {
			col = setPos(a.Type, col)
		} else {
			col += len(a.String())
		}
	}
	return col + 1
}

func normDir(d string) string {
	switch d {
	case "in", "out", "inout":
		return d
	}
	return "in"
}

func sanitizeIdent(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '-' || c == '#' || c == '/' {
			c = '_'
		}
		out[i] = c
	}
	return string(out)
}

// validateAndRepair runs the §3.2 phase: validate with the
// syz-extract/syz-generate equivalent, feed error messages back to
// the LLM for repair, and as a last resort drop declarations that
// remain broken.
func (g *Generator) validateAndRepair(ctx context.Context, h *corpus.Handler, source string, spec *syzlang.File, res *Result) {
	env := g.env
	errs := syzlang.Validate(spec, env)
	if len(errs) == 0 {
		res.Spec = spec
		res.Valid = res.NewSyscalls() > 0
		res.ValidDirect = res.Valid
		return
	}
	if !g.Opts.Repair {
		res.Spec = spec
		res.RemainingErrors = errs
		return
	}
	// curText is cur formatted, "" until a round needs it: each spec
	// is formatted once, for the prompt and the no-progress check.
	cur, curText := spec, ""
	for round := 0; round < g.Opts.MaxRepairRounds && len(errs) > 0; round++ {
		res.Iterations++
		if curText == "" {
			curText = syzlang.Format(cur)
		}
		reply, err := g.complete(ctx, res, h, "repair", g.pb.buildRepair(
			syzlang.FormatErrors(syzlang.ValidationErrorsToErrors(errs)),
			curText, source))
		if err != nil {
			break
		}
		fixed, perrs := syzlang.Parse(llm.ExtractSection(reply, "## Repaired Specification"))
		if len(perrs) > 0 || len(fixed.Syscalls) == 0 {
			// The model mangled the spec; keep the current one and
			// fall through to declaration dropping.
			break
		}
		next := syzlang.Validate(fixed, env)
		fixedText := ""
		if len(next) >= len(errs) {
			if fixedText = syzlang.Format(fixed); fixedText == curText {
				// No progress; the error is hard for this model.
				break
			}
		}
		cur, curText, errs = fixed, fixedText, next
	}
	// Last resort: drop declarations that still fail, so the rest of
	// the specification remains usable.
	res.Spec, res.RemainingErrors = syzlang.Prune(cur, env, errs)
	res.Valid = len(res.RemainingErrors) == 0 && res.NewSyscalls() > 0
	res.Repaired = res.Valid
}

// FollowDependencies generates specs for secondary handlers the
// dependency stage discovered (kvm_vm / kvm_vcpu) and merges them
// into the parent result. It recurses through chains.
func (g *Generator) FollowDependencies(ctx context.Context, res *Result, visited map[string]bool) {
	if visited == nil {
		visited = map[string]bool{}
	}
	visited[res.Handler.Name] = true
	for _, name := range res.Deps {
		child := g.Corpus.Handler(name)
		if child == nil || visited[name] {
			continue
		}
		visited[name] = true
		childRes := g.GenerateFor(ctx, child)
		g.FollowDependencies(ctx, childRes, visited)
		if childRes.Spec == nil {
			continue
		}
		if res.Spec == nil {
			res.Spec = childRes.Spec
			continue
		}
		// Re-validate the merged family.
		merged := syzlang.MergeDedup(res.Spec, childRes.Spec)
		var errs []*syzlang.ValidationError
		res.Spec, errs = syzlang.Prune(merged, g.env, syzlang.Validate(merged, g.env))
		res.Valid = len(errs) == 0 && res.NewSyscalls() > 0
	}
}
