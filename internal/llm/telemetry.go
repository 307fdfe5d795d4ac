package llm

import (
	"context"

	"kernelgpt/internal/telemetry"
)

// Metrics is the LLM-client telemetry bundle: request outcomes, cache
// effectiveness, token spend, and completion latency. A nil
// *Metrics disables recording (WithTelemetry becomes the identity
// middleware), matching the package-wide disabled-path discipline.
type Metrics struct {
	// Requests counts completions entering the chain
	// (llm_requests_total); Errors counts the ones that failed
	// (llm_errors_total).
	Requests *telemetry.Counter
	Errors   *telemetry.Counter
	// CacheHits/CacheMisses classify successful completions by
	// Response.Cached (llm_cache_hits_total / llm_cache_misses_total)
	// — measured at the chain surface, so they agree with what callers
	// were actually served, unlike CachingClient.Stats, which also
	// sees requests that later fail downstream.
	CacheHits   *telemetry.Counter
	CacheMisses *telemetry.Counter
	// PromptTokens/CompletionTokens accumulate billed token usage
	// (llm_tokens_total{kind="prompt"|"completion"}); cache hits
	// report zero usage and so add nothing.
	PromptTokens     *telemetry.Counter
	CompletionTokens *telemetry.Counter
	// LatencyNs is the full-chain completion latency (llm_latency_ns),
	// cache lookups included.
	LatencyNs *telemetry.Histogram
}

// NewMetrics registers the LLM metric set on reg. A nil registry
// yields a nil (disabled) bundle.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Requests:         reg.Counter("llm_requests_total"),
		Errors:           reg.Counter("llm_errors_total"),
		CacheHits:        reg.Counter("llm_cache_hits_total"),
		CacheMisses:      reg.Counter("llm_cache_misses_total"),
		PromptTokens:     reg.Counter(`llm_tokens_total{kind="prompt"}`),
		CompletionTokens: reg.Counter(`llm_tokens_total{kind="completion"}`),
		LatencyNs:        reg.Histogram("llm_latency_ns", nil),
	}
}

// telemetryClient records each completion's outcome into a Metrics
// bundle.
type telemetryClient struct {
	inner Client
	m     *Metrics
	clock telemetry.Clock
}

// WithTelemetry returns middleware recording completions into m with
// latency from clock (nil = system). Place it first in Chain
// (outermost) so it observes what callers are actually served — a hit
// flagged by the cache below it.
func WithTelemetry(m *Metrics, clock telemetry.Clock) Middleware {
	return func(c Client) Client {
		if m == nil {
			return c
		}
		return &telemetryClient{inner: c, m: m, clock: clock}
	}
}

func (t *telemetryClient) Complete(ctx context.Context, req Request) (Response, error) {
	t0 := t.clock.Now()
	resp, err := t.inner.Complete(ctx, req)
	t.m.Requests.Inc()
	t.m.LatencyNs.Observe(t.clock.Now().Sub(t0).Nanoseconds())
	if err != nil {
		t.m.Errors.Inc()
		return resp, err
	}
	if resp.Cached {
		t.m.CacheHits.Inc()
	} else {
		t.m.CacheMisses.Inc()
	}
	t.m.PromptTokens.Add(int64(resp.Usage.PromptTokens))
	t.m.CompletionTokens.Add(int64(resp.Usage.CompletionTokens))
	return resp, nil
}

func (t *telemetryClient) Usage() Usage   { return t.inner.Usage() }
func (t *telemetryClient) Name() string   { return t.inner.Name() }
func (t *telemetryClient) Unwrap() Client { return t.inner }
