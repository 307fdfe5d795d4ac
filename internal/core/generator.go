package core

import (
	"context"
	"fmt"
	"strings"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/syzlang"
)

// Options configure the generator.
type Options struct {
	// Trace records every prompt/completion exchange into
	// Result.Transcript (the -trace flag of cmd/kernelgpt).
	Trace bool
	// MaxIter bounds the iterative analysis per stage (Algorithm 1's
	// MAX_ITER; the paper's default is 5).
	MaxIter int
	// Repair enables the validation-and-repair phase (§3.2).
	Repair bool
	// MaxRepairRounds bounds repair iterations.
	MaxRepairRounds int
	// AllInOne disables iterative narrowing: every stage receives the
	// handler's entire source file in one prompt (the §5.2.3
	// ablation's single-step setting).
	AllInOne bool
}

// DefaultOptions mirrors the paper's configuration.
func DefaultOptions() Options {
	return Options{MaxIter: 5, Repair: true, MaxRepairRounds: 3}
}

// Generator is KernelGPT: it drives the analysis LLM over extracted
// source to synthesize syzlang specifications.
type Generator struct {
	Client llm.Client
	Corpus *corpus.Corpus
	Opts   Options
	pb     promptBuilder
	// env is Corpus.Env(), built once: validation only reads it.
	env *syzlang.Env
}

// New constructs a Generator.
func New(client llm.Client, c *corpus.Corpus, opts Options) *Generator {
	return &Generator{Client: client, Corpus: c, Opts: opts, pb: promptBuilder{ix: c.Index}, env: c.Env()}
}

// Result is the outcome of specification generation for one handler.
type Result struct {
	Handler *corpus.Handler
	// Spec is the final specification (nil when generation failed
	// outright).
	Spec *syzlang.File
	// Valid reports whether the final spec passes validation and
	// describes at least one new operation.
	Valid bool
	// Repaired reports that validation initially failed and the
	// repair loop fixed it; ValidDirect that it was clean first try.
	ValidDirect bool
	Repaired    bool
	// Iterations counts LLM analysis rounds across stages.
	Iterations int
	// RemainingErrors holds validation errors that survived repair.
	RemainingErrors []*syzlang.ValidationError
	// Deps lists secondary handlers discovered via dependency
	// analysis (kvm_vm style); their specs are merged into Spec.
	Deps []string
	// Transcript holds the LLM exchanges when Options.Trace is set.
	Transcript []Exchange
}

// Exchange is one traced prompt/completion pair.
type Exchange struct {
	Stage      string
	Prompt     string
	Completion string
}

// NewSyscalls counts described operations beyond the open/socket
// call.
func (r *Result) NewSyscalls() int {
	if r.Spec == nil {
		return 0
	}
	n := 0
	for _, s := range r.Spec.Syscalls {
		if s.CallName != "openat" && s.CallName != "socket" {
			n++
		}
	}
	return n
}

// NewTypes counts struct/union definitions in the result.
func (r *Result) NewTypes() int {
	if r.Spec == nil {
		return 0
	}
	return len(r.Spec.Structs) + len(r.Spec.Unions)
}

// GenerateFor runs the full KernelGPT pipeline for one handler.
func (g *Generator) GenerateFor(ctx context.Context, h *corpus.Handler) *Result {
	res := &Result{Handler: h}
	fileSrc := g.Corpus.Index.Files()[h.SourcePath()]
	defines := definesOf(fileSrc)
	// What the extractor hands over for a located operation handler:
	// the uapi defines plus the registrations. The identifier stage
	// starts from it and the repair loop quotes it.
	located := defines + "\n" + registrationsOf(fileSrc)

	ident := g.identifierStage(ctx, h, fileSrc, defines, located, res)
	types := g.typeStage(ctx, h, fileSrc, defines, ident, res)
	deps := g.dependencyStage(ctx, h, fileSrc, defines, ident, res)

	spec := g.assemble(h, ident, types, deps, res)
	g.validateAndRepair(ctx, h, located, spec, res)
	return res
}

// identifierStage runs stage 1 iteratively (Algorithm 1).
func (g *Generator) identifierStage(ctx context.Context, h *corpus.Handler, fileSrc, defines, located string, res *Result) *llm.IdentResult {
	merged := &llm.IdentResult{}
	source := sourceText{head: located}
	if g.Opts.AllInOne {
		source.head = fileSrc
	}
	var unknowns []llm.UnknownRef
	fetched := map[string]bool{}
	for iter := 0; iter < g.Opts.MaxIter; iter++ {
		res.Iterations++
		reply, err := g.complete(ctx, res, h, "identifier", g.pb.build(identMsg, unknowns, source))
		if err != nil {
			return merged
		}
		r := llm.ParseIdentResult(reply)
		mergeIdent(merged, r)
		if g.Opts.AllInOne {
			break // single-shot: no iterative narrowing
		}
		// Gather newly requested definitions for the next round.
		var next []llm.UnknownRef
		var parts []string
		for _, u := range r.Unknown {
			if fetched[u.Name] {
				continue
			}
			fetched[u.Name] = true
			var ok bool
			if parts, ok = g.pb.appendSnippet(parts, fileSrc, u.Name); ok {
				next = append(next, u)
			}
		}
		if len(next) == 0 {
			break
		}
		source = sourceText{head: defines, sep: "\n", parts: parts}
		unknowns = next
	}
	return merged
}

func mergeIdent(dst, src *llm.IdentResult) {
	if dst.DevicePath == "" {
		dst.DevicePath = src.DevicePath
	}
	if dst.Domain == "" {
		dst.Domain = src.Domain
	}
	if dst.Level == "" {
		dst.Level = src.Level
	}
	have := map[string]bool{}
	for _, c := range dst.Cmds {
		have[c.Macro] = true
	}
	for _, c := range src.Cmds {
		if !have[c.Macro] {
			have[c.Macro] = true
			dst.Cmds = append(dst.Cmds, c)
		}
	}
	haveCalls := map[string]bool{}
	for _, c := range dst.Calls {
		haveCalls[c.Call] = true
	}
	for _, c := range src.Calls {
		if !haveCalls[c.Call] {
			haveCalls[c.Call] = true
			dst.Calls = append(dst.Calls, c)
			continue
		}
		// Prefer the richer entry (a later round may have resolved
		// the sockaddr type from the handler body).
		for i := range dst.Calls {
			if dst.Calls[i].Call == c.Call && dst.Calls[i].Addr == "" && c.Addr != "" {
				dst.Calls[i].Addr = c.Addr
				if dst.Calls[i].Fn == "" {
					dst.Calls[i].Fn = c.Fn
				}
			}
		}
	}
	dst.Unknown = src.Unknown
}

// registrationsOf extracts registration-struct initializations (the
// operation handlers the extractor located) from a file.
func registrationsOf(src string) string {
	var parts []string
	for _, marker := range []string{"struct file_operations", "struct miscdevice", "struct proto_ops", "struct net_proto_family"} {
		idx := 0
		for {
			i := strings.Index(src[idx:], marker)
			if i < 0 {
				break
			}
			i += idx
			end := strings.Index(src[i:], "};")
			if end < 0 {
				break
			}
			start := strings.LastIndex(src[:i], "static")
			if start < 0 {
				start = i
			}
			parts = append(parts, src[start:i+end+2])
			idx = i + end + 2
		}
	}
	// Chardev-registering init functions.
	if i := strings.Index(src, "register_chrdev"); i >= 0 {
		start := strings.LastIndex(src[:i], "static")
		end := strings.Index(src[i:], "}")
		if start >= 0 && end > 0 {
			parts = append(parts, src[start:i+end+1])
		}
	}
	return strings.Join(parts, "\n\n")
}

// typeStage runs stage 2 for every struct the identifier stage named.
func (g *Generator) typeStage(ctx context.Context, h *corpus.Handler, fileSrc, defines string, ident *llm.IdentResult, res *Result) string {
	var wanted []llm.UnknownRef
	seen := map[string]bool{}
	add := func(name, usage string) {
		if name == "" || seen[name] {
			return
		}
		seen[name] = true
		wanted = append(wanted, llm.UnknownRef{Kind: "TYPE", Name: name, Usage: usage})
	}
	for _, c := range ident.Cmds {
		add(c.Arg, "payload of "+c.Macro)
	}
	for _, c := range ident.Calls {
		add(c.Addr, "sockaddr of "+c.Call)
	}
	if len(wanted) == 0 {
		return ""
	}
	var defs []string
	for iter := 0; iter < g.Opts.MaxIter && len(wanted) > 0; iter++ {
		res.Iterations++
		source := g.typeSource(h, fileSrc, defines, ident, wanted)
		reply, err := g.complete(ctx, res, h, "type", g.pb.build(typeMsg, wanted, source))
		if err != nil {
			break
		}
		r := llm.ParseTypeResult(reply)
		if r.Defs != "" {
			defs = append(defs, r.Defs)
		}
		wanted = nil
		for _, u := range r.Unknown {
			if u.Kind == "TYPE" && !seen[u.Name] {
				seen[u.Name] = true
				wanted = append(wanted, u)
			}
		}
	}
	return strings.Join(defs, "\n")
}

// typeSource gathers struct definitions plus the worker functions
// whose validation code reveals field ranges.
func (g *Generator) typeSource(h *corpus.Handler, fileSrc, defines string, ident *llm.IdentResult, wanted []llm.UnknownRef) sourceText {
	if g.Opts.AllInOne {
		return sourceText{head: fileSrc}
	}
	var parts []string
	for _, u := range wanted {
		code, ok := g.Corpus.Index.ExtractType(u.Name)
		if !ok {
			code, ok = g.Corpus.Index.ExtractCode(u.Name)
		}
		if ok {
			parts = append(parts, code)
		}
	}
	for _, c := range ident.Cmds {
		if c.Handler == "" {
			continue
		}
		if code, ok := g.Corpus.Index.ExtractCode(c.Handler); ok {
			parts = append(parts, code)
		}
	}
	// Socket call handlers carry the sockaddr validation checks.
	for _, c := range ident.Calls {
		if c.Fn == "" {
			continue
		}
		if code, ok := g.Corpus.Index.ExtractCode(c.Fn); ok {
			parts = append(parts, code)
		}
	}
	return sourceText{head: defines, sep: "\n\n", parts: parts}
}

// dependencyStage runs stage 3 over the worker functions stage 1
// marked as return-value relevant.
func (g *Generator) dependencyStage(ctx context.Context, h *corpus.Handler, fileSrc, defines string, ident *llm.IdentResult, res *Result) *llm.DepResult {
	var refs []llm.UnknownRef
	var parts []string
	for _, c := range ident.Cmds {
		if c.Handler == "" {
			continue
		}
		code, ok := g.Corpus.Index.ExtractCode(c.Handler)
		if !ok {
			continue
		}
		refs = append(refs, llm.UnknownRef{Kind: "FUNC", Name: c.Handler, Usage: c.Macro})
		parts = append(parts, code)
	}
	if len(refs) == 0 {
		return &llm.DepResult{}
	}
	res.Iterations++
	source := sourceText{parts: parts}
	if g.Opts.AllInOne {
		source = sourceText{head: fileSrc}
	}
	reply, err := g.complete(ctx, res, h, "dependency", g.pb.build(depMsg, refs, source))
	if err != nil {
		return &llm.DepResult{}
	}
	return llm.ParseDepResult(reply)
}

// MergeSpecs combines valid results into one suite file, dropping
// duplicate declarations across handlers.
func MergeSpecs(results []*Result) *syzlang.File {
	specs := make([]*syzlang.File, 0, len(results))
	for _, r := range results {
		if r.Spec != nil && r.Valid {
			specs = append(specs, r.Spec)
		}
	}
	return syzlang.MergeDedup(specs...)
}

// Stats summarizes a generation run (Table 1 / Table 2 inputs).
type Stats struct {
	Total       int
	Valid       int
	ValidDirect int
	Repaired    int
	Failed      int
	NewSyscalls int
	NewTypes    int
}

// Summarize computes aggregate stats over results.
func Summarize(results []*Result) Stats {
	var s Stats
	for _, r := range results {
		s.Total++
		if r.Valid {
			s.Valid++
			if r.Repaired {
				s.Repaired++
			} else {
				s.ValidDirect++
			}
			s.NewSyscalls += r.NewSyscalls()
			s.NewTypes += r.NewTypes()
		} else {
			s.Failed++
		}
	}
	return s
}

// String renders the stats for logs.
func (s Stats) String() string {
	return fmt.Sprintf("total=%d valid=%d (direct=%d repaired=%d) failed=%d syscalls=%d types=%d",
		s.Total, s.Valid, s.ValidDirect, s.Repaired, s.Failed, s.NewSyscalls, s.NewTypes)
}

// complete sends a prompt through the client with purpose/driver
// metadata attached, tracing the exchange when configured.
func (g *Generator) complete(ctx context.Context, res *Result, h *corpus.Handler, stage string, msgs []llm.Message) (string, error) {
	resp, err := g.Client.Complete(ctx, llm.Request{
		Messages: msgs, Purpose: stage, Driver: h.Name,
	})
	if g.Opts.Trace {
		var prompt strings.Builder
		for _, m := range msgs {
			prompt.WriteString(m.Content)
			prompt.WriteByte('\n')
		}
		res.Transcript = append(res.Transcript, Exchange{
			Stage: stage, Prompt: prompt.String(), Completion: resp.Text,
		})
	}
	return resp.Text, err
}
