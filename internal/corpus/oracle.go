package corpus

import (
	"fmt"
	"strings"

	"kernelgpt/internal/syzlang"
)

// Oracle derives specifications from the ground-truth model. It has
// two uses: producing the reference ("perfect") specification each
// generator is audited against (§5.1.3), and producing the existing
// human-written Syzkaller suite (the paper's first baseline), which
// covers only the commands listed in Handler.SyzkallerCmds.

// OracleSpec returns the complete, correct specification for a
// handler: every command, exact identifier values (via macro names),
// exact payload layouts including len-relations, ranges, out fields,
// and resource dependencies.
func OracleSpec(h *Handler) *syzlang.File {
	g := specGen{h: h}
	return g.generate(allCmdNames(h), true)
}

// SyzkallerSpec returns the existing human-written suite for the
// handler: only the commands in SyzkallerCmds, but those are fully
// correct (they were written by experts). Returns nil when the
// handler has no existing descriptions. For sockets, integer-payload
// options are folded into a single syscall using a flags value list —
// the counting style §5.2.2 attributes to the human suite.
func SyzkallerSpec(h *Handler) *syzlang.File {
	if h.SyzkallerCmds == nil && !h.SyzkallerComplete {
		return nil
	}
	names := h.SyzkallerCmds
	if h.SyzkallerComplete {
		names = allCmdNames(h)
	}
	g := specGen{h: h, foldIntOpts: h.Kind == KindSocket}
	return g.generate(names, false)
}

// FamilySpec merges spec (OracleSpec or SyzkallerSpec) of h and of
// every descendant, depth first in corpus order; a handler whose spec
// is nil contributes nothing.
func (c *Corpus) FamilySpec(h *Handler, spec func(*Handler) *syzlang.File) *syzlang.File {
	var files []*syzlang.File
	var walk func(cur *Handler)
	walk = func(cur *Handler) {
		files = append(files, spec(cur))
		for _, cand := range c.Handlers {
			if cand.Parent == cur.Name {
				walk(cand)
			}
		}
	}
	walk(h)
	return syzlang.MergeDedup(files...)
}

// WidestSuite merges the oracle specs of every loaded handler with the
// fd-plumbing surface: the widest suite the kernel serves, so any
// program a campaign could have stored (-plumbing campaigns included)
// parses against it. It errs if the merged suite does not validate.
func (c *Corpus) WidestSuite() (*syzlang.File, error) {
	var files []*syzlang.File
	for _, h := range c.Handlers {
		if h.Loaded {
			files = append(files, OracleSpec(h))
		}
	}
	spec := syzlang.MergeDedup(append(files, c.PlumbingSuite())...)
	if errs := syzlang.Validate(spec, c.Env()); len(errs) > 0 {
		return nil, fmt.Errorf("widest suite invalid: %v", errs[0])
	}
	return spec, nil
}

func allCmdNames(h *Handler) []string {
	names := make([]string, len(h.Cmds))
	for i := range h.Cmds {
		names[i] = h.Cmds[i].Name
	}
	return names
}

type specGen struct {
	h           *Handler
	foldIntOpts bool
	file        *syzlang.File
	needStructs map[string]bool
}

func (g *specGen) generate(cmdNames []string, full bool) *syzlang.File {
	g.file = &syzlang.File{}
	g.needStructs = map[string]bool{}
	h := g.h
	if h.Kind == KindSocket {
		g.genSocket(cmdNames, full)
	} else {
		g.genDriver(cmdNames)
	}
	g.emitStructs()
	return g.file
}

func (g *specGen) genDriver(cmdNames []string) {
	h := g.h
	res := h.FDResource()
	g.file.Resources = append(g.file.Resources, &syzlang.ResourceDef{Name: res, Base: "fd"})
	if h.Parent == "" {
		g.file.Syscalls = append(g.file.Syscalls, &syzlang.SyscallDef{
			CallName: "openat",
			Variant:  h.Ident(),
			Args: []*syzlang.Field{
				field("fd", "const[AT_FDCWD]"),
				field("file", fmt.Sprintf("ptr[in, string[%q]]", h.DevPath)),
				field("flags", "const[O_RDWR]"),
				field("mode", "const[0]"),
			},
			Ret: res,
		})
	}
	want := toSet(cmdNames)
	for i := range h.Cmds {
		c := &h.Cmds[i]
		if !want[c.Name] {
			continue
		}
		call := &syzlang.SyscallDef{
			CallName: "ioctl",
			Variant:  c.Name,
			Args: []*syzlang.Field{
				field("fd", res),
				field("cmd", fmt.Sprintf("const[%s]", c.Name)),
			},
		}
		switch {
		case c.Arg != "":
			call.Args = append(call.Args, field("arg", fmt.Sprintf("ptr[%s, %s]", dirOf(c.Dir), c.Arg)))
			g.needStructs[c.Arg] = true
		case c.ArgInt:
			call.Args = append(call.Args, field("arg", "ptr[in, int32]"))
		}
		if c.MakesRes != "" {
			call.Ret = "fd_" + c.MakesRes
		}
		g.file.Syscalls = append(g.file.Syscalls, call)
	}
}

func dirOf(d ArgDir) string {
	if s := d.String(); s != "none" {
		return s
	}
	return "in"
}

func (g *specGen) genSocket(cmdNames []string, full bool) {
	h := g.h
	si := &h.Socket
	res := "sock_" + h.Ident()
	g.file.Resources = append(g.file.Resources, &syzlang.ResourceDef{Name: res, Base: "fd"})
	g.file.Syscalls = append(g.file.Syscalls, &syzlang.SyscallDef{
		CallName: "socket",
		Variant:  h.Ident(),
		Args: []*syzlang.Field{
			field("domain", fmt.Sprintf("const[%s]", si.Domain)),
			field("type", fmt.Sprintf("const[%d]", si.TypeVal)),
			field("proto", fmt.Sprintf("const[%d]", si.Protocol)),
		},
		Ret: res,
	})
	want := toSet(cmdNames)
	var foldable []string
	for i := range h.Cmds {
		c := &h.Cmds[i]
		if !want[c.Name] {
			continue
		}
		if g.foldIntOpts && (c.ArgInt || (c.Arg == "" && !c.ArgInt)) {
			foldable = append(foldable, c.Name)
			continue
		}
		g.file.Syscalls = append(g.file.Syscalls, g.sockoptCall(res, c))
	}
	if len(foldable) > 0 {
		// Single folded syscall with a flags list, Syzkaller style.
		flagsName := h.Ident() + "_opt_flags"
		vals := make([]syzlang.FlagValue, len(foldable))
		for i, n := range foldable {
			vals[i] = syzlang.FlagValue{Name: n}
		}
		g.file.Flags = append(g.file.Flags, &syzlang.FlagsDef{Name: flagsName, Values: vals})
		g.file.Syscalls = append(g.file.Syscalls, &syzlang.SyscallDef{
			CallName: "setsockopt",
			Variant:  h.Ident() + "_int",
			Args: []*syzlang.Field{
				field("fd", res),
				field("level", fmt.Sprintf("const[%s]", si.Level)),
				field("optname", fmt.Sprintf("flags[%s]", flagsName)),
				field("optval", "ptr[in, int32]"),
				field("optlen", "len[optval, int32]"),
			},
		})
	}
	// Non-sockopt calls: the oracle describes all of them; the human
	// suite only the ones listed in SyzkallerCalls (or all, when the
	// handler is marked complete).
	humanCalls := map[SockCallKind]bool{}
	for _, k := range h.SyzkallerCalls {
		humanCalls[k] = true
	}
	for i := range si.Calls {
		sc := &si.Calls[i]
		if full || g.h.SyzkallerComplete || humanCalls[sc.Kind] {
			g.file.Syscalls = append(g.file.Syscalls, g.sockCall(res, sc))
		}
	}
}

func (g *specGen) sockoptCall(res string, c *Cmd) *syzlang.SyscallDef {
	call := &syzlang.SyscallDef{
		CallName: "setsockopt",
		Variant:  c.Name,
		Args: []*syzlang.Field{
			field("fd", res),
			field("level", fmt.Sprintf("const[%s]", g.h.Socket.Level)),
			field("optname", fmt.Sprintf("const[%s]", c.Name)),
		},
	}
	switch {
	case c.Arg != "":
		call.Args = append(call.Args,
			field("optval", fmt.Sprintf("ptr[%s, %s]", dirOf(c.Dir), c.Arg)),
			field("optlen", "len[optval, int32]"))
		g.needStructs[c.Arg] = true
	case c.ArgInt:
		call.Args = append(call.Args,
			field("optval", "ptr[in, int32]"),
			field("optlen", "len[optval, int32]"))
	default:
		call.Args = append(call.Args,
			field("optval", "ptr[in, array[int8]]"),
			field("optlen", "len[optval, int32]"))
	}
	return call
}

func (g *specGen) sockCall(res string, sc *SockCall) *syzlang.SyscallDef {
	h := g.h
	call := &syzlang.SyscallDef{
		CallName: sc.Kind.String(),
		Variant:  h.Ident(),
		Args:     []*syzlang.Field{field("fd", res)},
	}
	if sc.Addr != "" {
		g.needStructs[sc.Addr] = true
	}
	switch sc.Kind {
	case SockBind, SockConnect:
		call.Args = append(call.Args,
			field("addr", fmt.Sprintf("ptr[in, %s]", sc.Addr)),
			field("addrlen", "len[addr, int32]"))
	case SockSendto:
		call.Args = append(call.Args,
			field("buf", "ptr[in, array[int8]]"),
			field("len", "len[buf, intptr]"),
			field("f", "const[0]"),
			field("addr", fmt.Sprintf("ptr[in, %s]", sc.Addr)),
			field("addrlen", "len[addr, int32]"))
	case SockRecvfrom:
		call.Args = append(call.Args,
			field("buf", "ptr[out, array[int8]]"),
			field("len", "len[buf, intptr]"),
			field("f", "const[0]"),
			field("addr", fmt.Sprintf("ptr[in, %s]", sc.Addr)),
			field("addrlen", "len[addr, int32]"))
	case SockListen:
		call.Args = append(call.Args, field("backlog", "int32[0:128]"))
	case SockAccept:
		call.Args = append(call.Args,
			field("peer", "ptr[out, array[int8]]"),
			field("peerlen", "len[peer, int32]"))
		call.Ret = res
	case SockSendmsg, SockRecvmsg:
		dir := "in"
		if sc.Kind == SockRecvmsg {
			dir = "out"
		}
		call.Args = append(call.Args,
			field("msg", fmt.Sprintf("ptr[%s, array[int8]]", dir)),
			field("f", "const[0]"))
	}
	return call
}

// emitStructs converts every referenced StructModel (transitively) to
// syzlang struct definitions.
func (g *specGen) emitStructs() {
	done := map[string]bool{}
	for {
		progressed := false
		for name := range g.needStructs {
			if done[name] {
				continue
			}
			done[name] = true
			progressed = true
			sm := g.h.StructByName(name)
			if sm == nil {
				continue
			}
			g.file.Structs = append(g.file.Structs, g.structDef(sm))
		}
		if !progressed {
			break
		}
	}
	// Deterministic order by name.
	sortStructs(g.file.Structs)
}

func sortStructs(s []*syzlang.StructDef) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1].Name > s[j].Name; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

func (g *specGen) structDef(sm *StructModel) *syzlang.StructDef {
	def := &syzlang.StructDef{Name: sm.Name}
	for _, f := range sm.Fields {
		def.Fields = append(def.Fields, g.fieldDef(sm, f))
	}
	return def
}

func (g *specGen) fieldDef(sm *StructModel, f FieldModel) *syzlang.Field {
	var typ string
	base := syzIntType(f.CType)
	if g.h.Kind == KindSocket && f.Name == "family" && f.Array == 0 {
		// Address-family fields must carry the domain constant for the
		// kernel's sockaddr validation to pass; expert specs (and the
		// analysis LLM, which sees the bind handler's check) know this.
		return field(f.Name, fmt.Sprintf("const[%s, %s]", g.h.Socket.Domain, base))
	}
	switch {
	case strings.HasPrefix(f.CType, "struct "):
		inner := strings.TrimPrefix(f.CType, "struct ")
		g.needStructs[inner] = true
		if f.Array > 0 {
			typ = fmt.Sprintf("array[%s, %d]", inner, f.Array)
		} else if f.Array < 0 {
			typ = fmt.Sprintf("array[%s]", inner)
		} else {
			typ = inner
		}
	case f.LenOf != "":
		typ = fmt.Sprintf("len[%s, %s]", f.LenOf, base)
	case f.Array > 0:
		typ = fmt.Sprintf("array[%s, %d]", base, f.Array)
	case f.Array < 0:
		typ = fmt.Sprintf("array[%s]", base)
	case f.Ranged:
		typ = fmt.Sprintf("%s[%d:%d]", base, f.Min, f.Max)
	default:
		typ = base
	}
	fld := field(f.Name, typ)
	if f.Out {
		fld.Attrs = []string{"out"}
	}
	return fld
}

// syzIntType maps a C scalar type to the syzlang int type.
func syzIntType(ctype string) string {
	switch strings.TrimSpace(ctype) {
	case "char", "__u8", "__s8", "u8", "s8":
		return "int8"
	case "__u16", "__s16", "u16", "s16", "short":
		return "int16"
	case "__u64", "__s64", "u64", "s64", "long", "unsigned long":
		return "int64"
	default:
		return "int32"
	}
}

func field(name, typ string) *syzlang.Field {
	te, err := syzlang.ParseTypeExpr(typ)
	if err != nil {
		panic(fmt.Sprintf("oracle: bad type %q: %v", typ, err))
	}
	return &syzlang.Field{Name: name, Type: te}
}

func toSet(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}
