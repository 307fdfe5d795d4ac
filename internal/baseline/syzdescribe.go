// Package baseline reimplements SyzDescribe (Hao et al., S&P 2023),
// the state-of-the-art static specification generator the paper
// compares against. It encodes exactly the hard-coded rules and
// documented limitations §1 and §5 describe:
//
//   - the device name comes from miscdevice.name (never .nodename),
//     so nodename-registered drivers get the wrong path (Figure 2c);
//   - switch case labels are taken verbatim as command values, so
//     handlers that switch on _IOC_NR(command) get wrong values;
//   - struct fields are emitted positionally as field_N with no
//     semantic relations (no len[], no ranges, no out annotations —
//     Figure 5's "static analysis" column);
//   - dispatch is followed for at most one delegation hop;
//   - sockets are not supported at all ("N/A" throughout Tables 1-6);
//   - the same ioctl may be described repeatedly with different types
//     (the duplication §5.2.1 notes), modeled by emitting one variant
//     per observed payload cast.
package baseline

import (
	"fmt"
	"strings"

	"kernelgpt/internal/ccode"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/syzlang"
)

// Result is the outcome of SyzDescribe for one handler.
type Result struct {
	Handler *corpus.Handler
	Spec    *syzlang.File
	// Valid reports the spec validates and describes ≥1 command.
	Valid bool
	// Err explains a total failure (e.g. socket handler).
	Err error
}

// NewSyscalls counts described operations beyond openat.
func (r *Result) NewSyscalls() int {
	if r.Spec == nil {
		return 0
	}
	n := 0
	for _, s := range r.Spec.Syscalls {
		if s.CallName != "openat" {
			n++
		}
	}
	return n
}

// NewTypes counts type definitions.
func (r *Result) NewTypes() int {
	if r.Spec == nil {
		return 0
	}
	return len(r.Spec.Structs) + len(r.Spec.Unions)
}

// Generator is the static analyzer.
type Generator struct {
	Corpus *corpus.Corpus
}

// New constructs the baseline generator.
func New(c *corpus.Corpus) *Generator { return &Generator{Corpus: c} }

// GenerateFor runs the static rules on one handler.
func (g *Generator) GenerateFor(h *corpus.Handler) *Result {
	res := &Result{Handler: h}
	if h.Kind == corpus.KindSocket {
		// SyzDescribe cannot analyze sockets (§5.1.1): the extensive
		// implementation effort was never undertaken.
		res.Err = fmt.Errorf("socket handlers are unsupported")
		return res
	}
	ix := g.Corpus.Index
	src := ix.Files()[h.SourcePath()]

	devPath, ok := g.deviceName(h, ix)
	if !ok {
		res.Err = fmt.Errorf("no device registration found")
		return res
	}
	entry := g.entryPoint(h, ix)
	if entry == "" {
		res.Err = fmt.Errorf("no unlocked_ioctl handler found")
		return res
	}
	cmds := g.commands(ix, src, entry)

	spec := g.assemble(h, devPath, cmds, ix)
	env := g.Corpus.Env()
	// The static tool has no repair loop: broken declarations are
	// silently dropped (its real-world behavior of emitting only what
	// its rules can prove).
	var errs []*syzlang.ValidationError
	res.Spec, errs = syzlang.Prune(spec, env, syzlang.Validate(spec, env))
	res.Valid = len(errs) == 0 && res.NewSyscalls() > 0
	return res
}

// deviceName applies the miscdevice.name rule — the one that misfires
// on nodename-registered drivers.
func (g *Generator) deviceName(h *corpus.Handler, ix *ccode.Index) (string, bool) {
	for _, reg := range ix.Registrations("miscdevice") {
		if reg.File != h.SourcePath() {
			continue
		}
		if name, ok := reg.Fields["name"]; ok {
			if s, ok := ix.EvalString(name); ok {
				return "/dev/" + s, true
			}
		}
	}
	// Char devices: the registration name.
	if fn := g.initFunction(h, ix); fn != nil {
		info := fn.Info()
		for _, calls := range [][]ccode.CallSite{info.Calls, info.Delegations} {
			for _, call := range calls {
				if call.Name == "register_chrdev" && len(call.Args) >= 3 {
					for _, a := range call.Args {
						if strings.HasPrefix(a, `"`) {
							return "/dev/" + ccode.StringValue(strings.ReplaceAll(a, " ", "")), true
						}
					}
				}
			}
		}
	}
	return "", false
}

func (g *Generator) initFunction(h *corpus.Handler, ix *ccode.Index) *ccode.Function {
	for _, fn := range ix.Functions {
		if fn.File == h.SourcePath() && strings.HasSuffix(fn.Name, "_init") {
			return fn
		}
	}
	return nil
}

// entryPoint finds the unlocked_ioctl target for the handler's fops.
func (g *Generator) entryPoint(h *corpus.Handler, ix *ccode.Index) string {
	for _, reg := range ix.Registrations("file_operations") {
		if reg.File != h.SourcePath() {
			continue
		}
		if fn, ok := reg.Fields["unlocked_ioctl"]; ok {
			return strings.TrimSpace(fn)
		}
	}
	return ""
}

// cmdInfo is one command the static rules extracted.
type cmdInfo struct {
	// label is the case label, used verbatim as the command value
	// (the rule that misfires under _IOC_NR modification).
	label string
	// argStruct is the copy_from_user destination type, "" if none.
	argStruct string
	argInt    bool
}

// commands walks the dispatch function, following at most one
// delegation hop — the modeled static-analysis depth limit.
func (g *Generator) commands(ix *ccode.Index, src, entry string) []cmdInfo {
	fn := ix.Function(entry)
	if fn == nil {
		return nil
	}
	info := fn.Info()
	hops := 0
	for len(info.Switches) == 0 && hops < 1 {
		// One delegation hop only.
		if len(info.Delegations) == 0 {
			break
		}
		next := ix.Function(info.Delegations[0].Name)
		if next == nil {
			break
		}
		info = next.Info()
		hops++
	}
	var out []cmdInfo
	for i := range info.Switches {
		for _, cs := range info.Switches[i].Cases {
			ci := cmdInfo{label: strings.TrimSpace(cs.Label)}
			if len(cs.CopyFromUser) > 0 {
				ci.argStruct = cs.CopyFromUser[0]
			} else if strings.Contains(cs.Body, "get_user") {
				ci.argInt = true
			}
			out = append(out, ci)
		}
	}
	// The lookup-table pattern is invisible to the rule set: no
	// switch means no commands (dm's case in Figure 2c, where only
	// the raw fallback constants appear).
	return out
}

// assemble emits the spec in SyzDescribe's characteristic style:
// numeric suffixes, field_N names, untyped byte-array payloads when
// the copy destination was not proven.
func (g *Generator) assemble(h *corpus.Handler, devPath string, cmds []cmdInfo, ix *ccode.Index) *syzlang.File {
	f := &syzlang.File{}
	id := fmt.Sprintf("%05d", hashID(h.Name))
	resName := "fd_" + id
	f.Resources = append(f.Resources, &syzlang.ResourceDef{Name: resName, Base: "fd"})
	f.Syscalls = append(f.Syscalls, &syzlang.SyscallDef{
		CallName: "openat", Variant: id,
		Args: []*syzlang.Field{
			mkField("fd", "const[AT_FDCWD]"),
			mkField("file", fmt.Sprintf("ptr[in, string[%q]]", devPath)),
			mkField("flags", "const[O_RDWR]"),
			mkField("mode", "const[0]"),
		},
		Ret: resName,
	})
	emitted := map[string]bool{}
	for i, c := range cmds {
		variant := fmt.Sprintf("%s_%d", id, i)
		call := &syzlang.SyscallDef{
			CallName: "ioctl", Variant: variant,
			Args: []*syzlang.Field{
				mkField("fd", resName),
				mkField("cmd", fmt.Sprintf("const[%s]", c.label)),
			},
		}
		switch {
		case c.argStruct != "":
			structName := c.argStruct + "_" + id
			call.Args = append(call.Args, mkField("arg", fmt.Sprintf("ptr[in, %s]", structName)))
			if !emitted[structName] {
				emitted[structName] = true
				if def := g.positionalStruct(ix, c.argStruct, structName); def != nil {
					f.Structs = append(f.Structs, def)
				} else {
					// Unproven type: raw byte array (Figure 2c's
					// "inaccurate arg type").
					call.Args[2] = mkField("arg", "ptr[in, array[int8]]")
				}
			}
		case c.argInt:
			call.Args = append(call.Args, mkField("arg", "ptr[in, int32]"))
		default:
			call.Args = append(call.Args, mkField("arg", "ptr[in, array[int8]]"))
		}
		f.Syscalls = append(f.Syscalls, call)
	}
	return f
}

// positionalStruct recovers the syntactic layout only: field_0,
// field_1, ... with plain scalar types and no semantic relations.
func (g *Generator) positionalStruct(ix *ccode.Index, cName, outName string) *syzlang.StructDef {
	st := ix.StructDef(cName)
	if st == nil {
		return nil
	}
	def := &syzlang.StructDef{Name: outName}
	for i, fld := range st.Fields {
		base := scalarSyz(fld.Type)
		var typ string
		switch {
		case strings.HasPrefix(strings.TrimSpace(fld.Type), "struct "):
			// Nested structs are flattened to byte arrays.
			typ = "array[int8]"
		case fld.IsArray && strings.TrimSpace(fld.Array) == "":
			typ = fmt.Sprintf("array[%s]", base)
		case fld.IsArray:
			if n, ok := ix.EvalInt(fld.Array); ok {
				typ = fmt.Sprintf("array[%s, %d]", base, n)
			} else {
				typ = fmt.Sprintf("array[%s]", base)
			}
		default:
			typ = base
		}
		def.Fields = append(def.Fields, mkField(fmt.Sprintf("field_%d", i), typ))
	}
	return def
}

func scalarSyz(ctype string) string {
	switch strings.TrimSpace(ctype) {
	case "char", "__u8", "__s8":
		return "int8"
	case "__u16", "__s16", "short":
		return "int16"
	case "__u64", "__s64", "long":
		return "int64"
	default:
		return "int32"
	}
}

func mkField(name, typ string) *syzlang.Field {
	te, err := syzlang.ParseTypeExpr(typ)
	if err != nil {
		te = &syzlang.TypeExpr{Ident: "intptr"}
	}
	return &syzlang.Field{Name: name, Type: te}
}

func hashID(name string) int {
	var h uint32 = 2166136261
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return int(h % 100000)
}

// GenerateAll runs the baseline over a worklist.
func (g *Generator) GenerateAll(handlers []*corpus.Handler) []*Result {
	out := make([]*Result, 0, len(handlers))
	for _, h := range handlers {
		out = append(out, g.GenerateFor(h))
	}
	return out
}

// MergeSpecs combines valid baseline results into one suite, keeping
// the first declaration of every name.
func MergeSpecs(results []*Result) *syzlang.File {
	specs := make([]*syzlang.File, 0, len(results))
	for _, r := range results {
		if r.Spec != nil && r.Valid {
			specs = append(specs, r.Spec)
		}
	}
	return syzlang.MergeDedup(specs...)
}
