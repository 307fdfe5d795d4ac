package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// campaignSize is a detached campaign workload's shape: rounds
// campaigns of execs programs each, every round on its own seed.
type campaignSize struct{ rounds, execs int }

func (p params) campaignSize(roundsAtTen, execs int) campaignSize {
	if p.tiny {
		return campaignSize{rounds: 2, execs: 1000}
	}
	return campaignSize{rounds: p.scaled(roundsAtTen), execs: execs}
}

// runner executes one campaign configuration.
type runner func(ctx context.Context, f *fuzz.Fuzzer, cfg fuzz.Config) (*fuzz.Stats, error)

func serialRunner(ctx context.Context, f *fuzz.Fuzzer, cfg fuzz.Config) (*fuzz.Stats, error) {
	return f.RunContext(ctx, cfg)
}

func shardedRunner(shards int) runner {
	return func(ctx context.Context, f *fuzz.Fuzzer, cfg fuzz.Config) (*fuzz.Stats, error) {
		return f.RunParallel(ctx, cfg, shards)
	}
}

// warmUp spends a short untimed campaign so lazy initialisation and
// heap growth are paid before the first timed round.
func warmUp(ctx context.Context, f *fuzz.Fuzzer, p params, run runner, execs int) {
	n := execs / 10
	if n < 500 {
		n = 500
	}
	// The warm-up's stats and error are unused: the timed rounds are the
	// ones checked.
	run(ctx, f, fuzz.DefaultConfig(n, derive(p.seed, streamWarm, 0)))
}

// runCampaigns is the untraced body of campaign_wide, campaign_deep
// and campaign_sharded: triage on, one timed campaign per round.
func runCampaigns(ctx context.Context, e *env, p params, tgt *prog.Target, size campaignSize, run runner) *outcome {
	o := newOutcome()
	f := fuzz.New(tgt, e.kernel)
	warmUp(ctx, f, p, run, size.execs)
	type done struct {
		st  *fuzz.Stats
		err error
	}
	results := make([]done, size.rounds)
	for r := range results {
		cfg := fuzz.DefaultConfig(size.execs, derive(p.seed, streamRound, r))
		o.timed(p, func() int {
			results[r].st, results[r].err = run(ctx, f, cfg)
			return size.execs
		})
	}
	// Checks run after the last timed round so their garbage is in no
	// round's allocation delta.
	for r, d := range results {
		checkCampaign(&o.checks, fmt.Sprintf("round %d", r), tgt, e.kernel, d.st, d.err, size.execs)
		if d.st != nil {
			o.addStats(d.st)
		}
	}
	o.note("%d rounds x %d execs; ops_per_s is the median of %d per-round rates", size.rounds, size.execs, len(o.rates))
	return o
}

// --- traced: the shadow step loop ------------------------------------

// stepSample is how many steps share one fully logged step in
// spans.jsonl; every step feeds the aggregates.
const stepSample = 64

// cloneSample is how many mutated steps share one timed prog.Clone
// probe (MutateOp clones inside itself, out of the harness's reach).
const cloneSample = 16

// shadowResult is what the shadow loop observed besides its spans.
type shadowResult struct {
	cover      *vkernel.CoverSet
	titles     map[string]bool
	generated  int
	mutated    int
	newCover   int
	addOffered int
	addTaken   int
	calls      int
	cloneBytes uint64
	cloneCount int
}

// shadowCampaign replays fuzz's serial campaign step from public
// pieces with a span per call. It draws from the RNG in the same order
// as the real loop, so for one seed it reaches the same coverage and
// crashes; fuzz.shadow_cover_ratio reports whether that still holds.
func shadowCampaign(tk *track, tgt *prog.Target, k *vkernel.Kernel, cfg fuzz.Config) *shadowResult {
	res := &shadowResult{cover: vkernel.NewCoverSet(k.NumBlocks()), titles: map[string]bool{}}
	g := prog.NewGen(tgt, cfg.Seed)
	vm := k.NewVM()
	pool := seedpool.New(cfg.CorpusCap)
	sched := prog.NewScheduler()
	ops := sched.Ops()
	opIndex := make(map[string]int, len(ops))
	for i, op := range ops {
		opIndex[op.Name()] = i
	}
	mctx := &prog.MutateCtx{
		MaxCalls: cfg.MaxCalls,
		Donor: func() *prog.Prog {
			tk.begin("seedpool.pick")
			defer tk.end()
			return pool.Pick(g.R)
		},
	}
	var ep prog.ExecProg
	var cov []vkernel.BlockID
	var m0, m1 runtime.MemStats
	for i := 0; i < cfg.Execs; i++ {
		tk.sample = i%stepSample == 0
		tk.begin("fuzz.step")
		var p *prog.Prog
		opIdx := -1
		var seedRef uint64
		var seed *prog.Prog
		if pool.Len() > 0 && g.R.Float64() < cfg.MutateBias {
			tk.begin("seedpool.pick")
			seed, seedRef = pool.PickRef(g.R)
			tk.end()
		}
		if seed != nil {
			tk.begin("prog.sched")
			pick := sched.Pick(g.R)
			tk.end()
			tk.begin("prog.mutate")
			var applied prog.Operator
			p, applied = g.MutateOp(seed, ops[pick], mctx)
			tk.end()
			if applied != nil {
				if idx, ok := opIndex[applied.Name()]; ok {
					opIdx = idx
				}
			}
			res.mutated++
			if res.mutated%cloneSample == 0 {
				tk.begin("prog.clone")
				seed.Clone()
				tk.end()
			}
			if res.mutated%(cloneSample*64) == 0 {
				runtime.ReadMemStats(&m0)
				seed.Clone()
				runtime.ReadMemStats(&m1)
				res.cloneBytes += m1.TotalAlloc - m0.TotalAlloc
				res.cloneCount++
			}
		} else {
			tk.begin("prog.generate")
			p = g.Generate(cfg.MaxCalls)
			tk.end()
			res.generated++
		}
		res.calls += len(p.Calls)
		tk.begin("prog.compile_exec")
		prog.CompileExecInto(p, &ep)
		tk.end()
		tk.begin("vkernel.run_compiled")
		crash, _ := vm.RunCompiled(&ep)
		tk.end()
		tk.begin("vkernel.append_cover")
		cov = vm.AppendCover(cov[:0])
		tk.end()
		tk.begin("fuzz.observe")
		newBlocks := 0
		for _, b := range cov {
			if res.cover.Add(b) {
				newBlocks++
			}
		}
		tk.end()
		if crash != nil && !res.titles[crash.Title] {
			res.titles[crash.Title] = true
			tk.keep() // triage is rare and long: always logged
			tk.begin("seedpool.minimize")
			seedpool.Minimize(vm, p, crash.Title)
			tk.end()
		}
		if newBlocks > 0 {
			res.newCover++
		}
		opName := ""
		if opIdx >= 0 {
			tk.begin("prog.sched")
			sched.Reward(opIdx, newBlocks)
			tk.end()
			tk.begin("seedpool.reward")
			pool.Reward(seedRef, newBlocks)
			tk.end()
			opName = ops[opIdx].Name()
		}
		tk.begin("seedpool.add")
		taken := pool.Add(p, newBlocks, opName)
		tk.end()
		if newBlocks > 0 {
			res.addOffered++
			if taken {
				res.addTaken++
			}
		}
		tk.end() // fuzz.step
	}
	tk.sample = true
	return res
}

// ledgerRows are the spans whose per-step costs should sum to the
// campaign step.
var ledgerRows = []string{
	"prog.generate", "prog.mutate", "prog.sched", "prog.compile_exec",
	"vkernel.run_compiled", "vkernel.append_cover", "fuzz.observe",
	"seedpool.pick", "seedpool.add", "seedpool.reward", "seedpool.minimize",
}

// traceCampaigns is the traced body of campaign_wide and
// campaign_deep: per round, the real serial campaign untraced (the
// step's true cost) and then the shadow loop on the same seed.
func traceCampaigns(ctx context.Context, e *env, p params, tr *tracer, tgt *prog.Target, size campaignSize) *outcome {
	o := newOutcome()
	f := fuzz.New(tgt, e.kernel)
	warmUp(ctx, f, p, serialRunner, size.execs)
	var realWall, shadowWall time.Duration
	var realCover, shadowCover, execs int
	total := &shadowResult{}
	for r := 0; r < size.rounds; r++ {
		cfg := fuzz.DefaultConfig(size.execs, derive(p.seed, streamRound, r))
		t0 := time.Now()
		st, err := f.RunContext(ctx, cfg)
		realWall += time.Since(t0)
		checkCampaign(&o.checks, fmt.Sprintf("round %d", r), tgt, e.kernel, st, err, size.execs)
		if st == nil {
			continue
		}
		o.addStats(st)
		tk := tr.track(r, 0)
		t0 = time.Now()
		sh := shadowCampaign(tk, tgt, e.kernel, cfg)
		shadowWall += time.Since(t0)
		tk.close()
		execs += size.execs
		realCover += st.CoverCount()
		shadowCover += sh.cover.Count()
		if !sameTitles(sh.titles, st.Crashes) {
			o.note("round %d: shadow loop crash titles differ from RunContext's (diagnostic only)", r)
		}
		total.generated += sh.generated
		total.mutated += sh.mutated
		total.newCover += sh.newCover
		total.addOffered += sh.addOffered
		total.addTaken += sh.addTaken
		total.calls += sh.calls
		total.cloneBytes += sh.cloneBytes
		total.cloneCount += sh.cloneCount
	}
	n := float64(execs)
	l := o.layer
	for metric, name := range map[string]string{
		"prog.generate_ns": "prog.generate", "prog.mutate_ns": "prog.mutate",
		"prog.clone_ns": "prog.clone", "prog.compile_exec_ns": "prog.compile_exec",
		"vkernel.run_compiled_ns": "vkernel.run_compiled", "vkernel.append_cover_ns": "vkernel.append_cover",
		"fuzz.observe_ns": "fuzz.observe", "seedpool.pick_ns": "seedpool.pick",
		"seedpool.add_ns": "seedpool.add", "seedpool.reward_ns": "seedpool.reward",
		"prog.sched_ns": "prog.sched",
	} {
		l[metric] = tr.get(name).meanSelfNs()
	}
	minimize := tr.get("seedpool.minimize")
	l["seedpool.minimize_ms"] = minimize.meanNs() / 1e6
	l["seedpool.minimize_count"] = float64(minimize.Count)
	l["prog.generate_frac"] = ratio(float64(total.generated), n)
	l["prog.clone_bytes"] = ratio(float64(total.cloneBytes), float64(total.cloneCount))
	l["prog.calls_per_prog"] = ratio(float64(total.calls), n)
	l["fuzz.new_cover_frac"] = ratio(float64(total.newCover), n)
	l["seedpool.add_accept_frac"] = ratio(float64(total.addTaken), float64(total.addOffered))
	ledger := 0.0
	for _, name := range ledgerRows {
		ledger += float64(tr.get(name).Self)
	}
	l["fuzz.step_ns"] = ratio(float64(realWall), n)
	l["fuzz.ledger_sum_ns"] = ratio(ledger, n)
	l["fuzz.ledger_coverage"] = ratio(l["fuzz.ledger_sum_ns"], l["fuzz.step_ns"])
	l["fuzz.trace_overhead_frac"] = ratio(float64(shadowWall-realWall), float64(realWall))
	l["fuzz.shadow_cover_ratio"] = ratio(float64(shadowCover), float64(realCover))
	o.note("%d rounds x %d execs, each run untraced by RunContext and then by the shadow step loop", size.rounds, size.execs)
	o.note("ledger: rows sum to %.0f ns of a %.0f ns step (coverage %.3f); the shadow loop cost %.3f of the real loop's wall on top",
		l["fuzz.ledger_sum_ns"], l["fuzz.step_ns"], l["fuzz.ledger_coverage"], l["fuzz.trace_overhead_frac"])
	return o
}

func sameTitles(a map[string]bool, b map[string]*fuzz.CrashReport) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if b[t] == nil {
			return false
		}
	}
	return true
}

// traceSharded is the traced body of campaign_sharded: the same
// budget on one shard and on all, to price the unit driver and merge.
func traceSharded(ctx context.Context, e *env, p params, tr *tracer, size campaignSize) *outcome {
	o := newOutcome()
	f := fuzz.New(e.wide, e.kernel)
	warmUp(ctx, f, p, shardedRunner(p.procs), size.execs)
	tk := tr.track(0, 0)
	defer tk.close()
	var oneWall, allWall, work time.Duration
	for r := 0; r < size.rounds; r++ {
		tk.round = r
		cfg := fuzz.DefaultConfig(size.execs, derive(p.seed, streamRound, r))
		tk.begin("fuzz.run_parallel_1")
		one, err := f.RunParallel(ctx, cfg, 1)
		oneWall += time.Duration(tk.end())
		checkCampaign(&o.checks, fmt.Sprintf("round %d, 1 shard", r), e.wide, e.kernel, one, err, size.execs)
		tk.begin("fuzz.run_parallel_n")
		all, err := f.RunParallel(ctx, cfg, p.procs)
		allWall += time.Duration(tk.end())
		checkCampaign(&o.checks, fmt.Sprintf("round %d, %d shards", r, p.procs), e.wide, e.kernel, all, err, size.execs)
		if one == nil || all == nil {
			continue
		}
		o.addStats(all)
		work += all.WorkTime
		o.checks.ok(one.Cover.Equal(all.Cover), "round %d: cover differs between 1 shard (%d blocks) and %d shards (%d blocks)",
			r, one.CoverCount(), p.procs, all.CoverCount())
	}
	o.layer["fuzz.parallel_speedup"] = ratio(float64(oneWall), float64(allWall))
	o.layer["fuzz.work_inflation"] = ratio(float64(work), float64(oneWall))
	o.note("%d rounds x %d execs on 1 shard and on %d", size.rounds, size.execs, p.procs)
	return o
}
