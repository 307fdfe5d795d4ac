// Package llm provides the analysis-LLM abstraction KernelGPT queries
// (§4 "Analysis LLM") and a deterministic simulated implementation.
//
// The client surface is context-aware and concurrency-ready: a call
// is a Request (messages plus purpose/driver metadata) completed into
// a Response (text plus per-call token usage), and clients compose
// through Middleware — the shipped wrappers are an LRU response cache
// (deduplicating identical analysis prompts across drivers) and a
// telemetry recorder. All shipped clients are safe for concurrent use;
// cumulative Usage accounting is mutex-protected.
//
// The paper drives GPT-4 through the OpenAI chat API; this
// reproduction is offline, so the Client interface is implemented by
// a simulated model that genuinely analyzes the C source embedded in
// each prompt (using the ccode parser), but through a capability
// profile that controls which kernel implementation patterns the
// model understands (nodename registration, _IOC_NR identifier
// modification, table dispatch, len-relations, comment reading) and a
// seeded fallibility model that injects the specification errors
// (wrong macro names, undefined types, bad len targets) the
// validation-and-repair phase (§3.2) exists to fix. Profiles for
// gpt-4, gpt-4o and gpt-3.5 reproduce the §5.2.3 model ablation.
package llm

import (
	"context"
	"strings"
	"sync"
)

// Message is one chat message.
type Message struct {
	Role    string // "system" or "user"
	Content string
}

// Request is one completion call: the conversation plus metadata
// identifying what the pipeline is asking for. The metadata rides
// along for middleware (cache keys, logging) and for per-purpose
// accounting; it is not part of the prompt text.
type Request struct {
	Messages []Message
	// Purpose names the pipeline stage issuing the call:
	// "identifier", "type", "dependency", or "repair".
	Purpose string
	// Driver names the handler under analysis (for tracing and
	// progress reporting).
	Driver string
}

// Response is the model's reply plus the token accounting for this
// single call.
type Response struct {
	Text string
	// Usage is the cost of this call alone (zero when served from a
	// cache).
	Usage Usage
	// Cached reports that a caching middleware served the response
	// without consulting the underlying model.
	Cached bool
}

// Usage accumulates token accounting, mirroring the paper's cost
// report (§5.1.1: ~5.56M input tokens, ~400K output, $34). Usage is a
// plain value; clients that accumulate it concurrently must do so
// through a UsageCounter.
type Usage struct {
	PromptTokens     int
	CompletionTokens int
	Calls            int
}

// Add merges another usage record.
func (u *Usage) Add(o Usage) {
	u.PromptTokens += o.PromptTokens
	u.CompletionTokens += o.CompletionTokens
	u.Calls += o.Calls
}

// CostUSD estimates the API cost at GPT-4-turbo-era prices
// ($10/M input, $30/M output), the pricing the paper's $34 figure
// reflects.
func (u *Usage) CostUSD() float64 {
	return float64(u.PromptTokens)*10/1e6 + float64(u.CompletionTokens)*30/1e6
}

// UsageCounter is a mutex-protected Usage accumulator for clients
// that serve concurrent completions.
type UsageCounter struct {
	mu sync.Mutex
	u  Usage // guarded by mu
}

// Record adds one call's usage.
func (c *UsageCounter) Record(u Usage) {
	c.mu.Lock()
	c.u.Add(u)
	c.mu.Unlock()
}

// Snapshot returns the accumulated totals.
func (c *UsageCounter) Snapshot() Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.u
}

// Client is the chat-completion interface KernelGPT consumes.
// Implementations must be safe for concurrent use.
type Client interface {
	// Complete sends one request and returns the model's reply with
	// per-call usage. The context cancels in-flight work.
	Complete(ctx context.Context, req Request) (Response, error)
	// Usage reports cumulative token accounting across all calls.
	Usage() Usage
	// Name identifies the model (for tables and ablations).
	Name() string
}

// Middleware wraps a Client with additional behavior (WithTelemetry,
// WithCache). Middleware composes: the returned Client is itself
// wrappable.
type Middleware func(Client) Client

// Chain applies middleware so that the first listed is outermost:
// Chain(c, a, b) serves requests through a, then b, then c.
func Chain(c Client, mws ...Middleware) Client {
	for i := len(mws) - 1; i >= 0; i-- {
		c = mws[i](c)
	}
	return c
}

// CountTokens approximates tokenization at 4 characters per token,
// the standard rough estimate for code-heavy English text.
func CountTokens(s string) int { return (len(s) + 3) / 4 }

// Section markers form the prompt contract between KernelGPT's
// prompt builder and any model: the same structured template the
// paper shows in Figure 6.
const (
	SecInstruction = "## Instruction"
	SecUnknown     = "## Unknown"
	SecSource      = "## Source Code of Relative Functions"
	SecFewShot     = "## Examples"
	SecErrors      = "## Validation Errors"
	SecSpec        = "## Current Specification"
)

// ExtractSection returns the body of the named section in a prompt
// or response (text between the marker line and the next "## "
// heading).
func ExtractSection(text, marker string) string {
	body, _ := extractSection(text, marker)
	return body
}

// extractSection is ExtractSection that also reports whether a line
// of text starts with the marker.
func extractSection(text, marker string) (string, bool) {
	// Match the marker only at the start of a line, so example
	// blocks quoting the protocol (indented) are not picked up.
	idx := 0
	for {
		i := strings.Index(text[idx:], marker)
		if i < 0 {
			return "", false
		}
		if idx += i; idx == 0 || text[idx-1] == '\n' {
			break
		}
		idx++
	}
	body := text[idx+len(marker):]
	if nl := strings.IndexByte(body, '\n'); nl >= 0 {
		body = body[nl+1:]
	} else {
		return "", true
	}
	// A heading on the very next line ends an empty section.
	if strings.HasPrefix(body, "## ") {
		return "", true
	}
	if end := strings.Index(body, "\n## "); end >= 0 {
		body = body[:end]
	}
	return strings.TrimSpace(body), true
}
