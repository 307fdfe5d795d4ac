package core_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kernelgpt/internal/core"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/engine"
	"kernelgpt/internal/llm"
)

// recorder records every request that reaches the model.
type recorder struct {
	llm.Client
	mu   sync.Mutex
	reqs []llm.Request
}

func (r *recorder) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	r.mu.Lock()
	r.reqs = append(r.reqs, req)
	r.mu.Unlock()
	return r.Client.Complete(ctx, req)
}

// refBuild and refBuildRepair are the reference layout: every section
// of a prompt in one user message after the system message, as the
// prompt builder wrote it before the constant parts became messages
// of their own.
func refBuild(instr string, unknowns []llm.UnknownRef, source string) []llm.Message {
	unknown := ""
	if len(unknowns) > 0 {
		var b strings.Builder
		b.WriteString(llm.SecUnknown + "\n")
		for _, u := range unknowns {
			b.WriteString("- " + u.Kind + ": " + u.Name + " USAGE: " + u.Usage + "\n")
		}
		b.WriteByte('\n')
		unknown = b.String()
	}
	content := llm.SecInstruction + "\n" + instr + "\n\n" + unknown +
		llm.SecSource + "\n" + source + "\n\n" +
		llm.SecFewShot + "\n" + core.FewShot + "\n"
	return []llm.Message{{Role: "system", Content: core.SystemPrompt}, {Role: "user", Content: content}}
}

func refBuildRepair(errs, spec, source string) []llm.Message {
	content := llm.SecInstruction + "\n" + core.Instructions["repair"] + "\n\n" +
		llm.SecErrors + "\n" + errs + "\n\n" +
		llm.SecSpec + "\n" + spec + "\n\n" +
		llm.SecSource + "\n" + source + "\n"
	return []llm.Message{{Role: "system", Content: core.SystemPrompt}, {Role: "user", Content: content}}
}

// reference rebuilds a request's prompt with the reference builder
// from the pieces its body carries: the unknowns and the source of a
// stage prompt, the errors, spec and source of a repair prompt.
func reference(t *testing.T, req llm.Request) []llm.Message {
	t.Helper()
	if len(req.Messages) < 3 {
		t.Fatalf("%s %s: %d messages", req.Driver, req.Purpose, len(req.Messages))
	}
	body := req.Messages[2].Content
	if req.Purpose == "repair" {
		rest, ok := strings.CutPrefix(body, llm.SecErrors+"\n")
		errs, rest, ok2 := strings.Cut(rest, "\n\n"+llm.SecSpec+"\n")
		spec, rest, ok3 := strings.Cut(rest, "\n\n"+llm.SecSource+"\n")
		source, ok4 := strings.CutSuffix(rest, "\n")
		if !ok || !ok2 || !ok3 || !ok4 {
			t.Fatalf("%s repair: body %q is not errors, spec and source", req.Driver, body)
		}
		return refBuildRepair(errs, spec, source)
	}
	var unknowns []llm.UnknownRef
	if rest, ok := strings.CutPrefix(body, llm.SecUnknown+"\n"); ok {
		block, after, ok := strings.Cut(rest, "\n\n")
		if !ok {
			t.Fatalf("%s %s: unterminated Unknown section in %q", req.Driver, req.Purpose, body)
		}
		for _, ln := range strings.Split(block, "\n") {
			kind, rest, ok := strings.Cut(strings.TrimPrefix(ln, "- "), ": ")
			name, usage, ok2 := strings.Cut(rest, " USAGE: ")
			if !ok || !ok2 {
				t.Fatalf("%s %s: bad unknown %q", req.Driver, req.Purpose, ln)
			}
			unknowns = append(unknowns, llm.UnknownRef{Kind: kind, Name: name, Usage: usage})
		}
		body = after
	}
	rest, ok := strings.CutPrefix(body, llm.SecSource+"\n")
	source, ok2 := strings.CutSuffix(rest, "\n")
	if !ok || !ok2 {
		t.Fatalf("%s %s: body %q does not end in a source section", req.Driver, req.Purpose, req.Messages[2].Content)
	}
	instr, ok := core.Instructions[req.Purpose]
	if !ok {
		t.Fatalf("unknown purpose %q", req.Purpose)
	}
	return refBuild(instr, unknowns, source)
}

// cut splits the reference's user message into the documented layout:
// a new message starts at each of the headings, in order, and the
// "\n" before each heading is dropped.
func cut(t *testing.T, ref []llm.Message, headings ...string) []llm.Message {
	t.Helper()
	out := []llm.Message{ref[0]}
	text := ref[1].Content
	for _, h := range headings {
		i := strings.Index(text, "\n\n"+h+"\n")
		if i < 0 {
			t.Fatalf("no %q heading to cut at in %q", h, text)
		}
		out = append(out, llm.Message{Role: "user", Content: text[:i+1]})
		text = text[i+2:]
	}
	return append(out, llm.Message{Role: "user", Content: text})
}

func joined(msgs []llm.Message) string {
	var b strings.Builder
	for _, m := range msgs {
		b.WriteString(m.Content)
		b.WriteByte('\n')
	}
	return b.String()
}

func promptSize(msgs []llm.Message) int {
	n := 0
	for _, m := range msgs {
		n += len(m.Content) + 1
	}
	return n
}

// recordedPrompts is, per model, the SHA-256 of every traced prompt of
// one full-corpus Suite pass (seed 1, one worker), in order, recorded
// when every prompt was still one user message. Nothing in the prompt
// builder may change it.
var recordedPrompts = map[string]string{
	"gpt-4":   "f16f191309409a266d205f5803aaea7dfed2211a916fb19ba8e885c30347a27a",
	"gpt-4o":  "f7e6b489a947eae84bc570dbee96840d540d6c09e8c01da1e3901e3c4051a295",
	"gpt-3.5": "0c6a5d7d5803e25f8fcda3aec995712adc19af5b078263c37cdfca6f3ffc326a",
}

// TestPromptLayoutMatchesReference records every request of one
// full-corpus Suite pass per model, with tracing on, and checks each
// against the reference builder:
//   - the messages are the reference's text cut at the documented
//     points, each cut dropping one "\n": [system, instruction, body,
//     few-shot] for a stage, [system, instruction, body] for a repair;
//   - joined one per line they are the reference's text, and the sum
//     of len+1 the prompt costs tokens on is the same;
//   - the traced transcript of each exchange is that text, and all of
//     them hash to what the single-message layout traced.
func TestPromptLayoutMatchesReference(t *testing.T) {
	c := corpus.Build(corpus.Config{Scale: 1})
	opts := core.DefaultOptions()
	opts.Trace = true
	layouts := map[string]int{}
	for _, model := range llm.ModelNames() {
		rec := &recorder{Client: llm.NewSim(model, 1)}
		drivers, sockets, _, err := engine.New(c, engine.WithClient(rec), engine.WithGeneratorOptions(opts)).Suite(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.reqs) == 0 {
			t.Fatalf("%s: the pass sent no request", model)
		}
		want := make([]string, len(rec.reqs))
		for i, req := range rec.reqs {
			ref := reference(t, req)
			var layout []llm.Message
			switch {
			case req.Purpose == "repair":
				layout = cut(t, ref, llm.SecErrors)
				layouts["repair"]++
			case strings.Contains(ref[1].Content, "\n\n"+llm.SecUnknown+"\n"):
				layout = cut(t, ref, llm.SecUnknown, llm.SecFewShot)
				layouts["stage with unknowns"]++
			default:
				layout = cut(t, ref, llm.SecSource, llm.SecFewShot)
				layouts["stage"]++
			}
			if !reflect.DeepEqual(req.Messages, layout) {
				t.Fatalf("%s: %s request %d of %s is not the reference cut:\n got %q\nwant %q",
					model, req.Purpose, i, req.Driver, req.Messages, layout)
			}
			want[i] = joined(ref)
			if got := joined(req.Messages); got != want[i] {
				t.Fatalf("%s: %s request %d of %s joins to %q, the reference to %q", model, req.Purpose, i, req.Driver, got, want[i])
			}
			if got, ref := promptSize(req.Messages), promptSize(ref); got != ref {
				t.Fatalf("%s: request %d costs Σ(len+1) = %d, the reference %d", model, i, got, ref)
			}
		}
		// Each result's exchanges are the next requests of its handler;
		// those of the secondary handlers dependency analysis found in
		// between have no transcript and are passed over.
		h := sha256.New()
		next := 0
		for _, res := range append(append([]*core.Result(nil), drivers...), sockets...) {
			for _, ex := range res.Transcript {
				for next < len(rec.reqs) && rec.reqs[next].Driver != res.Handler.Name {
					next++
				}
				if next == len(rec.reqs) || rec.reqs[next].Purpose != ex.Stage {
					t.Fatalf("%s: %s's %s exchange has no request", model, res.Handler.Name, ex.Stage)
				}
				if ex.Prompt != want[next] {
					t.Fatalf("%s: %s's %s transcript differs from the reference prompt", model, res.Handler.Name, ex.Stage)
				}
				h.Write([]byte(ex.Prompt))
				next++
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != recordedPrompts[model] {
			t.Errorf("%s: the traced prompts hash to %s, recorded %s", model, got, recordedPrompts[model])
		}
	}
	if len(layouts) != 3 {
		t.Fatalf("the passes sent prompts of the layouts %v; the check needs all three", layouts)
	}
}
