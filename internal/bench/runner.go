// Package bench regenerates every table and figure of the paper's
// evaluation (§5): specification-generation statistics (Table 1,
// Figure 7, Table 2), whole-suite fuzzing effectiveness (Table 3),
// bug detection (Table 4), per-driver and per-socket comparisons
// (Tables 5 and 6), the §5.2.3 ablations, the §5.1.3 correctness
// audit, and the §5.1.1 token-cost accounting.
//
// Absolute numbers differ from the paper (the substrate is a virtual
// kernel, not a 96-core QEMU testbed); the reproduced quantities are
// the shapes: which suite wins, by roughly what factor, and which
// bugs only the generated specifications can reach.
package bench

import (
	"context"
	"fmt"

	"kernelgpt/internal/baseline"
	"kernelgpt/internal/core"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/engine"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/vkernel"
)

// Options size the experiments.
type Options struct {
	// Scale is the corpus scale (1.0 = paper scale).
	Scale float64
	// Execs is the per-campaign execution budget for the big suite
	// runs (Tables 3/4); per-driver runs use PerDriverExecs.
	Execs          int
	PerDriverExecs int
	// Reps is the repetition count (the paper uses 3).
	Reps int
	// Seed drives generation fallibility and fuzzing.
	Seed int64
	// Model selects the analysis LLM profile.
	Model string
	// Workers sizes the engine's generation worker pool (0 = serial).
	// Results are worker-count-invariant; this is a wall-clock knob.
	Workers int
}

// DefaultOptions sizes a full run (minutes of CPU).
func DefaultOptions() Options {
	return Options{Scale: 1.0, Execs: 60000, PerDriverExecs: 12000, Reps: 3, Seed: 1, Model: "gpt-4", Workers: 4}
}

// QuickOptions sizes a fast smoke run for tests and benchmarks.
func QuickOptions() Options {
	return Options{Scale: 0.05, Execs: 4000, PerDriverExecs: 1500, Reps: 2, Seed: 1, Model: "gpt-4", Workers: 4}
}

// Runner owns the shared state across experiments: the corpus, the
// kernel image, and cached generation results per model.
type Runner struct {
	Opts   Options
	Corpus *corpus.Corpus
	Kernel *vkernel.Kernel
	// Ctx cancels long experiment runs (benchtables wires SIGINT
	// here); defaults to context.Background().
	Ctx context.Context

	genCache  map[string]*genRun
	baseCache *baseRun
	campCache *suiteCampaigns
	t5Cache   map[string]*syzlang.File
}

// genRun caches one model's generation over the incomplete worklist.
type genRun struct {
	eng     *engine.Engine
	drivers []*core.Result
	sockets []*core.Result
	suite   *syzlang.File // merged KernelGPT specs
}

// baseRun caches the SyzDescribe run.
type baseRun struct {
	drivers []*baseline.Result
	suite   *syzlang.File
}

// NewRunner builds the corpus and kernel once.
func NewRunner(opts Options) *Runner {
	c := corpus.Build(corpus.Config{Scale: opts.Scale})
	return &Runner{
		Opts:     opts,
		Corpus:   c,
		Kernel:   vkernel.New(c),
		Ctx:      context.Background(), //syzlint:ctx -- default root; callers override Runner.Ctx
		genCache: map[string]*genRun{},
	}
}

// generate runs (or returns the cached) KernelGPT generation for a
// model over every incomplete handler through the engine's worker
// pool, following dependencies. Results are identical for any pool
// size.
func (r *Runner) generate(model string) *genRun {
	if g, ok := r.genCache[model]; ok {
		return g
	}
	run := &genRun{eng: r.engine(model, core.DefaultOptions())}
	var err error
	run.drivers, run.sockets, run.suite, err = run.eng.Suite(r.Ctx)
	if run.suite == nil {
		run.suite = &syzlang.File{}
	}
	if err == nil {
		// Cache only complete runs: a cancelled generation must not
		// poison later experiments with partial results.
		r.genCache[model] = run
	}
	return run
}

// engine builds a pooled generation engine for one model profile.
func (r *Runner) engine(model string, opts core.Options) *engine.Engine {
	return engine.New(r.Corpus,
		engine.WithClient(llm.NewSim(model, uint64(r.Opts.Seed))),
		engine.WithGeneratorOptions(opts),
		engine.WithWorkers(r.Opts.Workers),
		engine.WithCache(4096))
}

// syzdescribe runs (or returns the cached) baseline generation.
func (r *Runner) syzdescribe() *baseRun {
	if r.baseCache != nil {
		return r.baseCache
	}
	g := baseline.New(r.Corpus)
	run := &baseRun{}
	run.drivers = g.GenerateAll(r.Corpus.Incomplete(corpus.KindDriver))
	run.suite = baseline.MergeSpecs(run.drivers)
	r.baseCache = run
	return run
}

// compile builds a fuzzing target from a suite, panicking on internal
// inconsistency (suites are validated before they get here).
func (r *Runner) compile(files ...*syzlang.File) *prog.Target {
	merged := syzlang.MergeDedup(files...)
	t, err := prog.Compile(merged, r.Corpus.Env())
	if err != nil {
		panic(fmt.Sprintf("bench: suite does not compile: %v", err))
	}
	return t
}

// campaign runs Reps repetitions over a target (concurrently; each
// repetition is an independent campaign, so the stats match a serial
// run exactly).
func (r *Runner) campaign(t *prog.Target, execs int, seedOffset int64) []*fuzz.Stats {
	f := fuzz.New(t, r.Kernel)
	cfg := fuzz.DefaultConfig(execs, r.Opts.Seed*7919+seedOffset)
	return f.RunRepetitions(r.Ctx, cfg, r.Opts.Reps)
}

// resultFor finds the cached generation result for a handler.
func (g *genRun) resultFor(name string) *core.Result {
	for _, res := range append(append([]*core.Result{}, g.drivers...), g.sockets...) {
		if res.Handler.Name == name {
			return res
		}
	}
	return nil
}

// newSyscallCount counts generated operations not present in the
// handler's existing human descriptions — the paper's "new syscalls"
// metric (Table 2).
func newSyscallCount(res *core.Result) (calls, types int) {
	if res.Spec == nil || !res.Valid {
		return 0, 0
	}
	existing := map[string]bool{}
	for _, c := range res.Handler.SyzkallerCmds {
		existing[c] = true
	}
	for _, s := range res.Spec.Syscalls {
		switch s.CallName {
		case "openat", "socket":
			continue
		}
		if existing[s.Variant] {
			continue
		}
		calls++
	}
	types = len(res.Spec.Structs) + len(res.Spec.Unions)
	return calls, types
}
