// Package core implements KernelGPT itself (§3): LLM-guided iterative
// analysis over extracted kernel source (Algorithm 1), staged as
// identifier deduction, type recovery, and dependency analysis, then
// specification assembly, validation with Syzkaller-equivalent
// tooling, and LLM-driven repair from the validator's error messages.
package core

import (
	"strings"

	"kernelgpt/internal/ccode"
	"kernelgpt/internal/llm"
)

// Prompt instructions per stage. The stage keyword is the routing
// contract with the analysis model (the few-shot examples of the
// paper's template are summarized by the instruction text).
const (
	instrIdent = `Please analyze the following kernel operation handler source code and
generate the Syzkaller specification identifier values: the device file
path (or socket family), each ioctl command or socket option macro, its
worker handler function, and the argument type. If the command handling
is unclear and dependent on another function, list it in the UNKNOWN
section with its usage.`

	instrType = `Please generate the Syzkaller type definitions for the requested
structures based on the source code, capturing length relations between
count fields and sibling arrays, value ranges enforced by validation
code or documented in comments, and output fields. If a nested type is
not shown, list it in the UNKNOWN section.`

	instrDep = `Please perform dependency analysis: identify whether any worker
function's return value creates a new file descriptor resource (for
example via anon_inode_getfd) that other operation handlers consume.`

	instrRepair = `The following Syzkaller specification failed validation. Please repair
the descriptions using the error messages and the original source code,
and output the corrected specification.`
)

// fewShot reproduces the paper's in-context examples (Figure 6): a
// worked identifier deduction, a type recovery, and a repair, shaping
// the model's output format. It is sent with every prompt and counts
// toward the token accounting.
const fewShot = `### Example 1: identifier deduction with delegation
Given the handler:
    static long ex_ctl_ioctl(struct file *file, uint command, ulong u)
    {
        return ctl_ioctl(file, command, (struct ex_ioctl __user *)u);
    }
the command handling is delegated, so answer:
    ## Unknown
    - FUNC: ctl_ioctl USAGE: return ctl_ioctl(file, command, (struct ex_ioctl __user *)u);

### Example 2: identifier deduction with a modified identifier
Given:
    #define EX_IOC_MAGIC 0xfd
    #define EX_VERSION_CMD 0
    #define EX_VERSION _IOWR(EX_IOC_MAGIC, EX_VERSION_CMD, struct ex_ioctl)
    static int ctl_ioctl(struct file *file, uint command, struct ex_ioctl *u)
    {
        uint cmd = _IOC_NR(command);
        if (cmd == EX_VERSION_CMD)
            return ex_version(u);
        ...
    }
the switch variable is the _IOC_NR of the userspace value, so the real
identifier is the full encoded macro:
    ## Commands
    - MACRO: EX_VERSION HANDLER: ex_version ARG: ex_ioctl DIR: inout PLAIN: false

### Example 3: type recovery with a length relation
Given:
    struct ex_list {
        __u32 count;    /* number of entries in entries */
        __u64 entries[];
    };
answer:
    ## Type Definitions
    ex_list {
        count  len[entries, int32]
        entries  array[int64]
    }

### Example 4: repair
Given the error 'unknown constant "EX_VERSIO" in const[]' and the
source macro EX_VERSION, correct the name and output the whole
specification under '## Repaired Specification'.`

// The constant parts of every prompt are whole messages, shared by
// every prompt of their stage instead of copied into each one: a
// prompt is [system, instruction, body, few-shot]. Against the one
// user message the same sections used to fill, each cut between two
// messages drops the "\n" that ended the section before it, so the
// messages joined one per line are that message's text, and the
// prompt costs the same tokens.
var (
	systemMsg  = llm.Message{Role: "system", Content: systemPrompt}
	identMsg   = instructionMsg(instrIdent)
	typeMsg    = instructionMsg(instrType)
	depMsg     = instructionMsg(instrDep)
	repairMsg  = instructionMsg(instrRepair)
	fewShotMsg = llm.Message{Role: "user", Content: llm.SecFewShot + "\n" + fewShot + "\n"}
)

const systemPrompt = "You are an expert Linux kernel and Syzkaller engineer."

func instructionMsg(instr string) llm.Message {
	return llm.Message{Role: "user", Content: llm.SecInstruction + "\n" + instr + "\n"}
}

// promptBuilder assembles the structured prompts.
type promptBuilder struct {
	ix *ccode.Index
}

// sourceText is a prompt's source section as the stages gather it:
// head, then, when there are parts, sep and the parts separated by
// blank lines. The body is written from these pieces in one pass.
type sourceText struct {
	head, sep string
	parts     []string
}

func (s sourceText) len() int {
	n := len(s.head)
	if len(s.parts) > 0 {
		n += len(s.sep) + 2*(len(s.parts)-1)
		for _, p := range s.parts {
			n += len(p)
		}
	}
	return n
}

func (s sourceText) writeTo(b *strings.Builder) {
	b.WriteString(s.head)
	if len(s.parts) == 0 {
		return
	}
	b.WriteString(s.sep)
	for i, p := range s.parts {
		if i > 0 {
			b.WriteString("\n\n")
		}
		b.WriteString(p)
	}
}

// build returns a stage prompt: the stage's instruction message, a
// body of the unknowns asked about and the source, and the few-shot
// message.
func (p *promptBuilder) build(instr llm.Message, unknowns []llm.UnknownRef, src sourceText) []llm.Message {
	size := llm.UnknownLen(unknowns) + len(llm.SecSource) + 1 + src.len() + 1
	if len(unknowns) > 0 {
		size++
	}
	var b strings.Builder
	b.Grow(size)
	if len(unknowns) > 0 {
		llm.WriteUnknown(&b, unknowns)
		b.WriteByte('\n')
	}
	b.WriteString(llm.SecSource + "\n")
	src.writeTo(&b)
	b.WriteByte('\n')
	return []llm.Message{systemMsg, instr, {Role: "user", Content: b.String()}, fewShotMsg}
}

func (p *promptBuilder) buildRepair(errs, spec, source string) []llm.Message {
	body := llm.SecErrors + "\n" + errs + "\n\n" +
		llm.SecSpec + "\n" + spec + "\n\n" +
		llm.SecSource + "\n" + source + "\n"
	return []llm.Message{systemMsg, repairMsg, {Role: "user", Content: body}}
}

// definesOf returns every preprocessor definition line of a source
// file — the uapi-header context that accompanies any handler
// analysis.
func definesOf(src string) string {
	size := 0
	for rest := src; len(rest) > 0; {
		ln, next, _ := strings.Cut(rest, "\n")
		if isDefine(ln) {
			size += len(ln) + 1
		}
		rest = next
	}
	var b strings.Builder
	b.Grow(size)
	for len(src) > 0 {
		ln, rest, _ := strings.Cut(src, "\n")
		if isDefine(ln) {
			b.WriteString(ln)
			b.WriteByte('\n')
		}
		src = rest
	}
	return b.String()
}

func isDefine(ln string) bool { return strings.HasPrefix(strings.TrimSpace(ln), "#define") }

// appendSnippet appends the definition of an identifier to parts,
// preceded, for a function that references it, by the static dispatch
// table of the same file (lookup_ioctl's table travels with it).
func (p *promptBuilder) appendSnippet(parts []string, fileSrc, ident string) ([]string, bool) {
	code, ok := p.ix.ExtractCode(ident)
	if !ok {
		return parts, false
	}
	if strings.Contains(code, "lookup_ioctl") {
		if tbl := extractTable(fileSrc); tbl != "" {
			parts = append(parts, tbl)
		}
	}
	return append(parts, code), true
}

// extractTable pulls the "_ioctls[] = { ... };" static table text.
func extractTable(src string) string {
	idx := strings.Index(src, "_ioctls[] = {")
	if idx < 0 {
		return ""
	}
	start := strings.LastIndex(src[:idx], "static")
	if start < 0 {
		start = idx
	}
	end := strings.Index(src[idx:], "};")
	if end < 0 {
		return ""
	}
	return src[start : idx+end+2]
}
