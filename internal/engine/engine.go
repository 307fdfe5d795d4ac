// Package engine is the concurrency-ready facade over KernelGPT's
// specification-generation pipeline. It owns the wiring the cmd/
// binaries and benchmarks used to duplicate by hand — building the
// analysis client chain (telemetry → cache → client), and looping
// handlers through generation plus dependency following — and runs
// per-driver generation through a worker pool.
//
// Construction uses functional options:
//
//	eng := engine.New(corpus,
//		engine.WithClient(llm.NewSim("gpt-4", 1)),
//		engine.WithWorkers(8),
//		engine.WithCache(2048))
//	results, err := eng.Generate(ctx, corpus.Incomplete(corpus.KindDriver))
//
// Generation results are deterministic and identical to the serial
// core.Generator loop for any worker count: the simulated analysis
// model is a pure function of (seed, prompt), so scheduling order
// cannot leak into the output, and results are returned in worklist
// order.
package engine

import (
	"context"
	"time"

	"kernelgpt/internal/core"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/pool"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/telemetry"
)

// config collects the functional options.
type config struct {
	client    llm.Client
	workers   int
	cacheSize int
	opts      core.Options
	registry  *telemetry.Registry
	clock     telemetry.Clock
}

// Option configures an Engine.
type Option func(*config)

// WithClient supplies the analysis client (the default is
// llm.NewSim("gpt-4", 1)); pass llm.NewSim(name, seed) to pick another
// simulated model or fallibility seed.
func WithClient(c llm.Client) Option {
	return func(cfg *config) { cfg.client = c }
}

// WithWorkers sets the generation worker-pool size (default 1:
// serial, bit-for-bit the legacy loop).
func WithWorkers(n int) Option {
	return func(cfg *config) { cfg.workers = n }
}

// WithCache inserts an LRU completion cache of the given capacity in
// front of the client, deduplicating identical analysis prompts
// across drivers.
func WithCache(entries int) Option {
	return func(cfg *config) { cfg.cacheSize = entries }
}

// WithGeneratorOptions replaces the full core.Options (default
// core.DefaultOptions): the repair loop (§3.2), AllInOne, MaxIter and
// tracing are all set here.
func WithGeneratorOptions(opts core.Options) Option {
	return func(cfg *config) { cfg.opts = opts }
}

// WithTelemetry registers engine and LLM-client metrics on reg: an
// llm telemetry middleware outermost in the chain (request/error,
// cache hit/miss, token, and latency series), a
// worker-occupancy gauge, and per-handler outcome counters. A nil
// registry disables everything (the default).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(cfg *config) { cfg.registry = reg }
}

// WithClock overrides the telemetry clock (nil = system time). Only
// latency measurements read it; generation itself stays a pure
// function of the model seed.
func WithClock(c telemetry.Clock) Option {
	return func(cfg *config) { cfg.clock = c }
}

// engineMetrics is the engine-side telemetry bundle.
type engineMetrics struct {
	// workersBusy is a point-in-time worker-pool occupancy gauge
	// (engine_workers_busy): incremented when a worker picks up a
	// handler, decremented when it finishes.
	workersBusy *telemetry.Gauge
	// handlers/handlersValid count per-handler pipeline completions
	// (engine_handlers_total, engine_handlers_valid_total).
	handlers      *telemetry.Counter
	handlersValid *telemetry.Counter
	// handlerNs is the per-handler generation latency distribution
	// (engine_handler_ns), clock-injected like every other duration.
	handlerNs *telemetry.Histogram
}

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		workersBusy:   reg.Gauge("engine_workers_busy"),
		handlers:      reg.Counter("engine_handlers_total"),
		handlersValid: reg.Counter("engine_handlers_valid_total"),
		handlerNs:     reg.Histogram("engine_handler_ns", nil),
	}
}

// handlerDone records one completed handler (nil-safe).
func (m *engineMetrics) handlerDone(durNs int64, valid bool) {
	if m == nil {
		return
	}
	m.handlers.Inc()
	if valid {
		m.handlersValid.Inc()
	}
	m.handlerNs.Observe(durNs)
}

// Engine drives specification generation for a corpus.
type Engine struct {
	corpus  *corpus.Corpus
	client  llm.Client
	gen     *core.Generator
	workers int
	metrics *engineMetrics
	clock   telemetry.Clock
}

// New builds an Engine over a corpus with the given options.
func New(c *corpus.Corpus, options ...Option) *Engine {
	cfg := &config{workers: 1, opts: core.DefaultOptions()}
	for _, o := range options {
		o(cfg)
	}
	client := cfg.client
	if client == nil {
		client = llm.NewSim("gpt-4", 1)
	}
	// Telemetry sits outermost so it observes what callers are served,
	// hits flagged by the cache below it included.
	mws := []llm.Middleware{llm.WithTelemetry(llm.NewMetrics(cfg.registry), cfg.clock)}
	if cfg.cacheSize > 0 {
		mws = append(mws, llm.WithCache(cfg.cacheSize))
	}
	client = llm.Chain(client, mws...)
	return &Engine{
		corpus:  c,
		client:  client,
		gen:     core.New(client, c, cfg.opts),
		workers: cfg.workers,
		metrics: newEngineMetrics(cfg.registry),
		clock:   cfg.clock,
	}
}

// Usage reports cumulative token accounting for all generation done
// through this engine.
func (e *Engine) Usage() llm.Usage { return e.client.Usage() }

// CacheStats reports completion-cache effectiveness, if a cache was
// configured.
func (e *Engine) CacheStats() (llm.CacheStats, bool) {
	if cc, ok := llm.FindCache(e.client); ok {
		return cc.Stats(), true
	}
	return llm.CacheStats{}, false
}

// GenerateFor runs the full pipeline for one handler, following
// dependency discoveries (kvm_vm style) into secondary handlers.
func (e *Engine) GenerateFor(ctx context.Context, h *corpus.Handler) *core.Result {
	res := e.gen.GenerateFor(ctx, h)
	e.gen.FollowDependencies(ctx, res, nil)
	return res
}

// Generate runs the pipeline over a worklist through the worker pool
// and returns results in worklist order. On cancellation it returns
// the completed prefix's results (unstarted handlers yield failed
// Results, never nil) along with ctx.Err().
func (e *Engine) Generate(ctx context.Context, handlers []*corpus.Handler) ([]*core.Result, error) {
	results := make([]*core.Result, len(handlers))
	pool.Run(pool.Clamp(len(handlers), e.workers, 1), len(handlers), func(i int) {
		var t0 time.Time
		if e.metrics != nil {
			e.metrics.workersBusy.Add(1)
			defer e.metrics.workersBusy.Add(-1)
			t0 = e.clock.Now()
		}
		results[i] = e.GenerateFor(ctx, handlers[i])
		if e.metrics != nil {
			e.metrics.handlerDone(e.clock.Now().Sub(t0).Nanoseconds(), results[i].Valid)
		}
	})
	return results, ctx.Err()
}

// GenerateKind generates for every incomplete handler of one kind.
func (e *Engine) GenerateKind(ctx context.Context, kind corpus.Kind) ([]*core.Result, error) {
	return e.Generate(ctx, e.corpus.Incomplete(kind))
}

// Suite generates for every incomplete driver and socket handler as
// one worklist, drivers first, and returns the per-kind results plus
// the merged valid suite. On cancellation both slices are non-nil
// (see Generate) and merged is nil.
func (e *Engine) Suite(ctx context.Context) (drivers, sockets []*core.Result, merged *syzlang.File, err error) {
	worklist := e.corpus.Incomplete(corpus.KindDriver)
	nd := len(worklist)
	all, err := e.Generate(ctx, append(worklist, e.corpus.Incomplete(corpus.KindSocket)...))
	drivers, sockets = all[:nd:nd], all[nd:]
	if err != nil {
		return drivers, sockets, nil, err
	}
	return drivers, sockets, core.MergeSpecs(all), nil
}
