package engine

import (
	"testing"
	"time"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/telemetry"
)

func fixedClock() telemetry.Clock {
	at := time.Unix(1_700_000_000, 0).UTC()
	return func() time.Time { return at }
}

// TestEngineTelemetry: a telemetry-enabled engine reports handler
// outcomes, pool occupancy returning to zero, and LLM-chain series
// that reconcile with the engine's own cache accounting.
func TestEngineTelemetry(t *testing.T) {
	worklist := testCorpus.Incomplete(corpus.KindDriver)
	reg := telemetry.NewRegistry()
	e := New(testCorpus, WithClient(llm.NewSim("gpt-4", 5)), WithWorkers(4),
		WithCache(2048),
		WithTelemetry(reg), WithClock(fixedClock()))
	results, err := e.Generate(ctx, worklist)
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for _, r := range results {
		if r.Valid {
			valid++
		}
	}
	if got := reg.Counter("engine_handlers_total").Value(); got != int64(len(worklist)) {
		t.Errorf("engine_handlers_total = %d, want %d", got, len(worklist))
	}
	if got := reg.Counter("engine_handlers_valid_total").Value(); got != int64(valid) {
		t.Errorf("engine_handlers_valid_total = %d, want %d", got, valid)
	}
	if got := reg.Gauge("engine_workers_busy").Value(); got != 0 {
		t.Errorf("engine_workers_busy = %d after Generate, want 0", got)
	}
	if got := reg.Histogram("engine_handler_ns", nil).Count(); got != int64(len(worklist)) {
		t.Errorf("engine_handler_ns count = %d, want %d", got, len(worklist))
	}
	// The chain-surface cache series must agree with CacheStats.
	cs, ok := e.CacheStats()
	if !ok {
		t.Fatal("cache stats missing")
	}
	if got := reg.Counter("llm_cache_hits_total").Value(); got != int64(cs.Hits) {
		t.Errorf("llm_cache_hits_total = %d, CacheStats.Hits = %d", got, cs.Hits)
	}
	if got := reg.Counter("llm_cache_misses_total").Value(); got != int64(cs.Misses) {
		t.Errorf("llm_cache_misses_total = %d, CacheStats.Misses = %d", got, cs.Misses)
	}
	u := e.Usage()
	if got := reg.Counter("llm_requests_total").Value(); got != int64(cs.Hits+cs.Misses) {
		t.Errorf("llm_requests_total = %d, want hits+misses = %d", got, cs.Hits+cs.Misses)
	}
	wantTokens := int64(u.PromptTokens + u.CompletionTokens)
	gotTokens := reg.Counter(`llm_tokens_total{kind="prompt"}`).Value() +
		reg.Counter(`llm_tokens_total{kind="completion"}`).Value()
	if gotTokens != wantTokens {
		t.Errorf("llm_tokens_total = %d, Usage total = %d", gotTokens, wantTokens)
	}
}

// TestEngineTelemetryDeterminism: instrumentation must not perturb
// generation — a telemetry-enabled run produces the same results as a
// bare one.
func TestEngineTelemetryDeterminism(t *testing.T) {
	worklist := testCorpus.Incomplete(corpus.KindDriver)
	base, err := New(testCorpus, WithClient(llm.NewSim("gpt-4", 5))).Generate(ctx, worklist)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(testCorpus, WithClient(llm.NewSim("gpt-4", 5)), WithWorkers(4),
		WithTelemetry(telemetry.NewRegistry()), WithClock(fixedClock())).Generate(ctx, worklist)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if fingerprint(got[i]) != fingerprint(base[i]) {
			t.Fatalf("telemetry perturbed result %d (%s)", i, worklist[i].Name)
		}
	}
}

// TestEngineTelemetryDisabledIsDefault: without WithTelemetry the
// chain must stay free of telemetry layers.
func TestEngineTelemetryDisabledIsDefault(t *testing.T) {
	e := New(testCorpus, WithClient(llm.NewSim("gpt-4", 1)), WithCache(8))
	if e.metrics != nil {
		t.Error("metrics bundle allocated without WithTelemetry")
	}
	if _, ok := llm.FindCache(e.client); !ok {
		t.Error("cache missing from default chain")
	}
}
