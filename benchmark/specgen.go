package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kernelgpt/internal/core"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/engine"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
)

// specgenSize is specgen_full's shape: cycles timed rounds of one
// full-suite generation per simulated model, then post campaigns of
// postExecs programs on the first cycle's generated suites (what
// fuzzing with the generated specs reaches).
type specgenSize struct{ cycles, post, postExecs int }

func (p params) specgenSize() specgenSize {
	if p.tiny {
		return specgenSize{cycles: 1, post: 1, postExecs: 1000}
	}
	return specgenSize{cycles: p.scaled(24), post: 3, postExecs: 40000}
}

// passes is the number of generation passes: the models differ in
// speed, so a timed round is one pass of each.
func (s specgenSize) passes() int { return s.cycles * len(llm.ModelNames()) }

// cacheEntries is the engine's completion-cache capacity.
const cacheEntries = 4096

// passModel cycles the simulated models; gpt-3.5's weaker profile
// keeps the repair loop busy.
func passModel(p params, pass int) *llm.SimModel {
	names := llm.ModelNames()
	return llm.NewSim(names[pass%len(names)], uint64(derive(p.seed, streamSim, pass)))
}

// genStats sums what the generation passes produced.
type genStats struct {
	passes                                             int
	handlers, valid, newSyscalls, iterations, repaired int
	usage                                              llm.Usage
	cache                                              llm.CacheStats
}

func (g *genStats) add(results []*core.Result, eng *engine.Engine) {
	g.passes++
	for _, r := range results {
		g.handlers++
		g.iterations += r.Iterations
		if r.Repaired {
			g.repaired++
		}
		if r.Valid {
			g.valid++
			g.newSyscalls += r.NewSyscalls()
		}
	}
	g.usage.Add(eng.Usage())
	if cs, ok := eng.CacheStats(); ok {
		g.cache.Hits += cs.Hits
		g.cache.Misses += cs.Misses
	}
}

func (g *genStats) tokensPerHandler() float64 {
	return ratio(float64(g.usage.PromptTokens+g.usage.CompletionTokens), float64(g.handlers))
}

// checkSpecs verifies one pass: every result marked Valid survives an
// independent format -> parse -> validate round trip with no error,
// and the merged suite compiles. tk, when set, spans the syzlang calls.
func checkSpecs(c *checks, tk *track, what string, env *syzlang.Env, results []*core.Result, merged *syzlang.File) {
	for _, r := range results {
		if !r.Valid {
			continue
		}
		name := r.Handler.Name
		if r.Spec == nil {
			c.ok(false, "%s: %s is marked valid without a spec", what, name)
			continue
		}
		tk.begin("syzlang.format")
		text := syzlang.Format(r.Spec)
		tk.end()
		tk.begin("syzlang.parse")
		parsed, errs := syzlang.Parse(text)
		tk.end()
		if len(errs) > 0 {
			c.ok(false, "%s: valid spec of %s does not parse back: %v", what, name, errs[0])
			continue
		}
		tk.begin("syzlang.validate")
		verrs := syzlang.Validate(parsed, env)
		tk.end()
		c.ok(len(verrs) == 0, "%s: valid spec of %s has %d validation errors after a round trip", what, name, len(verrs))
	}
	_, err := prog.Compile(merged, env)
	c.ok(err == nil, "%s: merged suite does not compile: %v", what, err)
}

// postCampaigns fuzzes with the suites the first cycle generated,
// merged: the coverage and crashes the specs are for.
func postCampaigns(ctx context.Context, o *outcome, e *env, p params, size specgenSize, suite *syzlang.File) {
	tgt, err := prog.Compile(suite, e.corpus.Env())
	if err != nil {
		o.checks.ok(false, "generated suite does not compile: %v", err)
		return
	}
	f := fuzz.New(tgt, e.kernel)
	for i := 0; i < size.post; i++ {
		st, err := f.RunContext(ctx, fuzz.DefaultConfig(size.postExecs, derive(p.seed, streamPost, i)))
		checkCampaign(&o.checks, fmt.Sprintf("post campaign %d", i), tgt, e.kernel, st, err, size.postExecs)
		if st != nil {
			o.addStats(st)
		}
	}
}

func (g *genStats) notes(o *outcome, size specgenSize) {
	o.note("%d passes x %d handlers; valid_spec_frac %.4f, new_syscalls per pass %.1f, llm_tokens_per_handler %.1f",
		g.passes, g.handlers/g.passes, ratio(float64(g.valid), float64(g.handlers)),
		ratio(float64(g.newSyscalls), float64(g.passes)), g.tokensPerHandler())
	o.note("cover_blocks and crashes_found come from %d campaigns x %d execs on the first cycle's generated suites, merged", size.post, size.postExecs)
}

func runSpecgen(ctx context.Context, e *env, p params) (*outcome, error) {
	o := newOutcome()
	size := p.specgenSize()
	newEngine := func(pass int) *engine.Engine {
		return engine.New(e.corpus, engine.WithClient(passModel(p, pass)),
			engine.WithWorkers(p.procs), engine.WithCache(cacheEntries))
	}
	// Warm-up: the first pass pays lazy initialisation the later ones
	// do not.
	if _, _, _, err := newEngine(size.passes()).Suite(ctx); err != nil {
		return nil, err
	}
	type pass struct {
		results []*core.Result
		merged  *syzlang.File
		err     error
	}
	passes := make([]pass, size.passes())
	engines := make([]*engine.Engine, len(passes))
	perCycle := len(passes) / size.cycles
	var g genStats
	for c := 0; c < size.cycles; c++ {
		o.timed(p, func() int {
			handlers := 0
			for i := c * perCycle; i < (c+1)*perCycle; i++ {
				engines[i] = newEngine(i)
				drivers, sockets, merged, err := engines[i].Suite(ctx)
				passes[i] = pass{results: append(drivers, sockets...), merged: merged, err: err}
				handlers += len(passes[i].results)
			}
			return handlers
		})
	}
	for i := range passes {
		g.add(passes[i].results, engines[i])
	}
	env := e.corpus.Env()
	for i, ps := range passes {
		what := fmt.Sprintf("pass %d", i)
		o.checks.ok(ps.err == nil, "%s: Suite returned %v", what, ps.err)
		if ps.err == nil {
			checkSpecs(&o.checks, nil, what, env, ps.results, ps.merged)
		}
	}
	var firstCycle []*syzlang.File
	for _, ps := range passes[:perCycle] {
		firstCycle = append(firstCycle, ps.merged)
	}
	postCampaigns(ctx, o, e, p, size, syzlang.MergeDedup(firstCycle...))
	g.notes(o, size)
	return o, nil
}

// spanClient is the llm middleware of the traced run: it spans each
// completion that reaches the model on the calling handler's track.
type spanClient struct{ inner llm.Client }

func (s spanClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	tk := trackFrom(ctx)
	tk.begin("llm.complete")
	defer tk.end()
	return s.inner.Complete(ctx, req)
}
func (s spanClient) Usage() llm.Usage { return s.inner.Usage() }
func (s spanClient) Name() string     { return s.inner.Name() }

// tracePass generates the full worklist through Engine.GenerateFor on
// the harness's own worker pool, one track per worker.
func tracePass(ctx context.Context, e *env, p params, tr *tracer, pass int) ([]*core.Result, *engine.Engine) {
	client := llm.Chain(passModel(p, pass), func(c llm.Client) llm.Client { return spanClient{inner: c} })
	eng := engine.New(e.corpus, engine.WithClient(client), engine.WithCache(cacheEntries))
	handlers := append(e.corpus.Incomplete(corpus.KindDriver), e.corpus.Incomplete(corpus.KindSocket)...)
	results := make([]*core.Result, len(handlers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := tr.track(pass, 0)
			defer tk.close()
			hctx := withTrack(ctx, tk)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(handlers) {
					return
				}
				tk.begin("engine.generate_for")
				results[i] = eng.GenerateFor(hctx, handlers[i])
				tk.end()
			}
		}()
	}
	wg.Wait()
	return results, eng
}

func traceSpecgen(ctx context.Context, e *env, p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	size := p.specgenSize()
	passes := (size.passes() + 3) / 4
	env := e.corpus.Env()
	probe := tr.track(-1, 0)
	var g genStats
	var firstCycle []*syzlang.File
	for i := 0; i < passes; i++ {
		results, eng := tracePass(ctx, e, p, tr, i)
		g.add(results, eng)
		merged := core.MergeSpecs(results)
		if i < len(llm.ModelNames()) {
			firstCycle = append(firstCycle, merged)
		}
		checkSpecs(&o.checks, probe, fmt.Sprintf("pass %d", i), env, results, merged)
	}
	probe.close()
	postCampaigns(ctx, o, e, p, size, syzlang.MergeDedup(firstCycle...))

	// One pass serial and once on every worker: the engine's own pool,
	// and whether its output depends on the worker count.
	suite := func(workers int) (string, time.Duration, error) {
		eng := engine.New(e.corpus, engine.WithClient(passModel(p, 0)),
			engine.WithWorkers(workers), engine.WithCache(cacheEntries))
		t0 := time.Now()
		_, _, merged, err := eng.Suite(ctx)
		wall := time.Since(t0)
		if err != nil {
			return "", 0, err
		}
		return syzlang.Format(merged), wall, nil
	}
	oneText, oneWall, err := suite(1)
	if err != nil {
		return nil, err
	}
	allText, allWall, err := suite(p.procs)
	if err != nil {
		return nil, err
	}
	o.checks.ok(oneText == allText, "merged suite differs between 1 worker and %d workers", p.procs)

	l := o.layer
	n := float64(g.handlers)
	handlerNs := tr.durations("engine.generate_for")
	l["engine.handler_ms_p50"] = median(handlerNs) / 1e6
	pct, tailNs := tail(handlerNs, 95)
	l["engine.handler_ms_p95"] = tailNs / 1e6
	l["engine.parallel_speedup"] = ratio(float64(oneWall), float64(allWall))
	l["core.self_ms"] = tr.get("engine.generate_for").meanSelfNs() / 1e6
	l["core.iterations_per_handler"] = ratio(float64(g.iterations), n)
	l["core.repaired_frac"] = ratio(float64(g.repaired), n)
	l["core.valid_spec_frac"] = ratio(float64(g.valid), n)
	l["core.new_syscalls"] = ratio(float64(g.newSyscalls), float64(g.passes))
	l["llm.complete_ms"] = tr.get("llm.complete").meanNs() / 1e6
	l["llm.calls_per_handler"] = ratio(float64(g.usage.Calls), n)
	l["llm.cache_hit_frac"] = ratio(float64(g.cache.Hits), float64(g.cache.Hits+g.cache.Misses))
	l["llm.prompt_tokens_per_call"] = ratio(float64(g.usage.PromptTokens), float64(g.usage.Calls))
	l["llm.tokens_per_handler"] = g.tokensPerHandler()
	for metric, name := range map[string]string{
		"syzlang.format_ns": "syzlang.format", "syzlang.parse_ns": "syzlang.parse", "syzlang.validate_ns": "syzlang.validate",
	} {
		l[metric] = tr.get(name).meanNs()
	}
	g.notes(o, size)
	o.note("%d handler generations traced; p%g reported as engine.handler_ms_p95", len(handlerNs), pct)
	return o, nil
}
