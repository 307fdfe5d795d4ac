package llm_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/engine"
	"kernelgpt/internal/llm"
)

// logClient records every request that reaches it.
type logClient struct {
	llm.Client
	mu   sync.Mutex
	reqs []llm.Request
}

func (l *logClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	l.mu.Lock()
	l.reqs = append(l.reqs, req)
	l.mu.Unlock()
	return l.Client.Complete(ctx, req)
}

// joinedRequest is the reference for reading a request in place: the
// sim used to join the messages, each followed by a newline, and read
// every section from that text and tokenise it. It returns that text
// and the request whose one message is the text without its final
// newline, so the sim reads the same bytes the join held.
func joinedRequest(req llm.Request) (string, llm.Request) {
	var b strings.Builder
	for _, m := range req.Messages {
		b.WriteString(m.Content)
		b.WriteByte('\n')
	}
	text := b.String()
	req.Messages = []llm.Message{{Role: "user", Content: strings.TrimSuffix(text, "\n")}}
	return text, req
}

// TestSimReadsMessagesInPlace: for every request of one full-corpus
// Suite pass per model, Complete returns the text and Usage it
// returns for the same messages joined into one, and the prompt costs
// what CountTokens gives for the join.
func TestSimReadsMessagesInPlace(t *testing.T) {
	c := corpus.Build(corpus.Config{Scale: 1})
	ctx := context.Background()
	for _, model := range llm.ModelNames() {
		rec := &logClient{Client: llm.NewSim(model, 1)}
		if _, _, _, err := engine.New(c, engine.WithClient(rec)).Suite(ctx); err != nil {
			t.Fatal(err)
		}
		if len(rec.reqs) == 0 {
			t.Fatalf("%s: the pass sent no request", model)
		}
		m := llm.NewSim(model, 1)
		for i, req := range rec.reqs {
			if len(req.Messages) < 2 {
				t.Fatalf("%s: request %d has %d messages; the check needs a join to compare", model, i, len(req.Messages))
			}
			got, err := m.Complete(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			text, joined := joinedRequest(req)
			want, err := m.Complete(ctx, joined)
			if err != nil {
				t.Fatal(err)
			}
			if want.Usage.PromptTokens != llm.CountTokens(text) {
				t.Fatalf("%s: the joined prompt costs %d tokens, CountTokens gives %d", model, want.Usage.PromptTokens, llm.CountTokens(text))
			}
			if got.Text != want.Text || got.Usage != want.Usage {
				t.Fatalf("%s: %s request %d of %s: in place %+v, joined %+v", model, req.Purpose, i, req.Driver, got, want)
			}
		}
	}
}
