package llm

import (
	"context"
	"testing"
	"time"

	"kernelgpt/internal/telemetry"
)

func fixedClock() telemetry.Clock {
	at := time.Unix(1_700_000_000, 0).UTC()
	return func() time.Time { return at }
}

// TestTelemetryObservesChain drives the middleware stack — telemetry
// outermost, then cache — and checks every series: a miss, a hit, and
// a second miss.
func TestTelemetryObservesChain(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	fake := &fakeClient{}
	c := Chain(fake,
		WithTelemetry(m, fixedClock()),
		WithCache(8))
	ctx := context.Background()

	r1, err := c.Complete(ctx, req("prompt-a")) // miss
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatalf("first call must miss: %+v", r1)
	}
	r2, err := c.Complete(ctx, req("prompt-a")) // hit
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatalf("second identical call must hit: %+v", r2)
	}
	if _, err := c.Complete(ctx, req("prompt-b")); err != nil { // miss
		t.Fatal(err)
	}

	want := map[string]int64{
		"llm_requests_total":     3,
		"llm_errors_total":       0,
		"llm_cache_hits_total":   1,
		"llm_cache_misses_total": 2,
	}
	for name, v := range want {
		if got := reg.Counter(name).Value(); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	// Token counters see only billed (uncached) completions; the hit
	// reports zero usage.
	wantPrompt := int64(CountTokens("prompt-a") + CountTokens("prompt-b"))
	if got := m.PromptTokens.Value(); got != wantPrompt {
		t.Errorf("prompt tokens = %d, want %d", got, wantPrompt)
	}
	if got := m.CompletionTokens.Value(); got != 4 {
		t.Errorf("completion tokens = %d, want 4", got)
	}
	// Under a frozen clock every latency observation is exactly zero.
	if m.LatencyNs.Count() != 3 || m.LatencyNs.Sum() != 0 {
		t.Errorf("latency count/sum = %d/%d, want 3/0", m.LatencyNs.Count(), m.LatencyNs.Sum())
	}
}

// TestTelemetryCountsErrors: a failed request is one request, one
// error — and no cache classification.
func TestTelemetryCountsErrors(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	fake := &fakeClient{failFirst: 1}
	c := Chain(fake,
		WithTelemetry(m, fixedClock()),
		WithCache(8))
	if _, err := c.Complete(context.Background(), req("doomed")); err == nil {
		t.Fatal("want the backend error")
	}
	if got := m.Requests.Value(); got != 1 {
		t.Errorf("requests = %d, want 1", got)
	}
	if got := m.Errors.Value(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
	if hits, misses := m.CacheHits.Value(), m.CacheMisses.Value(); hits != 0 || misses != 0 {
		t.Errorf("errored request classified as cache traffic: hits=%d misses=%d", hits, misses)
	}
}

// TestTelemetryDisabled: a nil bundle makes WithTelemetry the
// identity middleware.
func TestTelemetryDisabled(t *testing.T) {
	fake := &fakeClient{}
	c := Chain(fake, WithTelemetry(nil, nil))
	if _, ok := c.(*telemetryClient); ok {
		t.Error("disabled telemetry must not insert a chain layer")
	}
	if _, err := c.Complete(context.Background(), req("x")); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryChainWalking: the telemetry layer must not break
// FindCache's Unwrap traversal.
func TestTelemetryChainWalking(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := Chain(&fakeClient{}, WithTelemetry(NewMetrics(reg), fixedClock()), WithCache(4))
	if _, ok := FindCache(c); !ok {
		t.Error("FindCache must see through the telemetry layer")
	}
}
