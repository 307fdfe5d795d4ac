// Package fuzz is the Syzkaller-equivalent fuzzing loop: a
// coverage-guided campaign that generates and mutates syscall
// programs from compiled specifications, executes them on the virtual
// kernel, keeps coverage-increasing programs as seeds, and
// deduplicates crashes by title. Campaign length is measured in
// executed programs rather than wall-clock hours, which maps the
// paper's fixed CPU-hour sessions onto a deterministic budget.
//
// The execution hot path recycles its heavy state across programs:
// each campaign runs on one reusable executor VM (vkernel.Executor),
// every program — candidate, warm-start replay, triage trial — is
// lowered to a flat prog.ExecProg and run compiled, coverage is
// tracked in dense vkernel.CoverSet bitmaps, and the seed
// corpus lives in a seedpool.Pool with O(log n) priority eviction and
// priority-weighted scheduling. Crash repros are triaged (minimized)
// at discovery time.
//
// Every campaign runs through one driver (drive), which is handed a
// plan — the budget's decomposition into work units — and a worker
// count. There are three plans. RunContext (and its shim Run) drives
// the live one-unit plan: the unit keeps the campaign seed and fills
// the campaign's Stats directly, the maximally deep serial campaign.
// RunParallel drives a sharded plan: fixed-grain units on
// deterministically derived seeds, each into Stats of its own that the
// driver merges when the unit completes — the merged coverage and
// crash sets are identical for any worker count, so parallelism is
// purely a wall-clock knob. RunRepetitions is n independent live
// campaigns on derived seeds (the paper's 3-repetition averages).
//
// The driver alone opens the corpus store, builds the campaign view
// that Config.Progress, the campaign counters and the flight ring's
// window events share, checkpoints, talks to the hub, flushes and
// stamps Stats.Elapsed. A unit reports to it every progressEvery execs
// (a tick) and when it completes, and a campaign boundary always runs
// in one order: Progress, then the checkpoint flush, then the hub
// exchange. Whether the plan is live decides only which reports are
// boundaries: a live unit's ticks already see cumulative campaign
// state, so each tick is a full boundary on the live pool (pulled seeds
// are reconciled into it) and its completion only reports; a sharded
// unit's ticks can only relay its exec count, and its completion —
// once merged — is the boundary (pulled seeds warm-start the units
// that launch afterwards). Every campaign then ends with the same
// sequence: a Final hub exchange, the final store flush, the Elapsed
// stamp.
//
// Shutdown follows one rule for every plan. Once the context is done,
// units that have not started are skipped outright (not run, merged or
// reported), running units stop between executions and are merged with
// what they did, boundaries stop checkpointing and exchanging — and the
// end sequence still runs: the Final exchange detached from the
// cancelled context (bounded by a short grace, so the hub gets the
// campaign's last counters and releases its lease), then the flush.
// The partial Stats come back with the context error.
package fuzz

import (
	"context"
	"runtime"
	"sort"
	"time"

	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/pool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/telemetry"
	"kernelgpt/internal/vkernel"
)

// Config parameterizes a campaign.
type Config struct {
	// Execs is the program-execution budget.
	Execs int
	// Seed drives all randomness (one seed per repetition).
	Seed int64
	// MaxCalls bounds generated program length.
	MaxCalls int
	// MutateBias is the fraction of iterations that mutate a corpus
	// seed instead of generating fresh programs (Syzkaller's default
	// behavior mutates most of the time once a corpus exists).
	MutateBias float64
	// NoLocality disables the generator's resource-locality bias
	// (design-choice ablation).
	NoLocality bool
	// CorpusCap bounds the seed pool (0 selects
	// seedpool.DefaultCapacity).
	CorpusCap int
	// NoTriage skips crash-repro minimization at discovery time;
	// CrashReport.Repro then holds the raw crashing program.
	NoTriage bool
	// UniformOps disables the adaptive operator scheduler: mutation
	// operators are drawn uniformly at random instead of by
	// coverage-feedback bandit weights (the scheduler ablation
	// baseline).
	UniformOps bool
	// ShardExecs is the execution budget of one independent work
	// unit in RunParallel (0 selects DefaultShardExecs). The unit
	// decomposition — not the worker count — defines the campaign,
	// which is what makes merged results worker-count-invariant.
	ShardExecs int
	// Progress, when set, receives campaign progress updates: one per
	// unit tick (every progressEvery execs of a running unit) and one
	// per completed unit. It may be called from multiple goroutines,
	// but calls are serialized; the callback must not re-enter the
	// fuzzer.
	Progress func(Progress)
	// CorpusDir, when non-empty, names a persistent corpus-store
	// directory (fuzz/corpusstore). The campaign warm-starts from it:
	// stored seeds are imported into the initial pool with their
	// saved priorities and lineage bonuses (entries that no longer
	// validate are skipped and reported via StoreReport), then
	// replayed — each imported seed is executed once, counting
	// against Execs — so the campaign's coverage baseline includes
	// the stored corpus. When the campaign ends (including on
	// cancellation) the evolved corpus is merged back into the store
	// with a deterministic, capacity-bounded flush. An empty or
	// absent store is a cold start that simply populates the
	// directory. Store configuration errors surface from
	// RunContext/RunParallel; the Run wrapper swallows them along
	// with its stats (use RunContext when CorpusDir is set).
	CorpusDir string
	// Checkpoint additionally flushes the store at every campaign
	// boundary (see the package comment: every progressEvery execs of
	// a serial campaign, every completed unit of a sharded one), so a
	// killed campaign retains corpus progress. Requires CorpusDir.
	// Intermediate checkpoint contents depend on unit completion
	// order; the final flush does not.
	Checkpoint bool
	// ReadOnlyCorpus imports from CorpusDir without flushing back —
	// for evaluation, replay, and benchmark runs that must not
	// mutate the store.
	ReadOnlyCorpus bool
	// StoreReport, when set, receives the corpus-store load report
	// (loaded/skipped entry counts and reasons) before the campaign
	// starts.
	StoreReport func(corpusstore.Report)
	// Hub, when set, attaches the campaign to a coordination hub
	// (internal/hub.Client implements this). At every campaign
	// boundary, after the checkpoint flush, the campaign pushes its
	// cumulative state — corpus export, coverage, crashes — and takes
	// in the seeds the hub returns: reconciled into the live pool of a
	// serial campaign (weights never demoted), joined to the warm start
	// of a sharded campaign's later units. A Final push-only sync runs
	// when the campaign ends, cancelled or not. Syncs are best-effort:
	// an unreachable hub never fails the campaign.
	//
	// Each sync also renews the worker's hub lease — the only renewal
	// there is. A gap longer than the hub's lease TTL (one minute)
	// shows the worker's lease as expired in the hub's stats until its
	// next sync, which the hub serves as usual.
	//
	// Imported remote seeds change subsequent mutation picks, so a
	// hub-attached campaign is deterministic only if the hub's
	// responses are (e.g. workers syncing in a fixed order); detached
	// determinism guarantees do not transfer.
	Hub HubSync
	// Clock is the time source for all operator-facing timing:
	// Stats.Elapsed/WorkTime/TriageTime/SyncTime, Progress.ElapsedNs,
	// and telemetry stamps. Nil reads the system wall clock; tests and
	// golden fixtures inject a fixed or stepped clock. The clock never
	// influences campaign results — coverage, crashes, and the RNG
	// stream are identical for any Clock.
	Clock telemetry.Clock
	// Metrics, when set, receives campaign telemetry (exec/cover/crash
	// counters, exec/triage/sync/unit latency histograms). The campaign
	// counters are fed from the driver's boundary view, the one Progress
	// reports, so they equal the returned Stats at any shard count. Nil
	// disables recording at one pointer check per event; see Metrics.
	Metrics *Metrics
	// Flight, when set, buffers recent campaign activity in a bounded
	// ring — a window event per boundary (the campaign view's exec
	// total), a sync event per hub exchange, a crash event per new
	// title — and dumps the ring to disk whenever a new crash title is
	// discovered, so every crash report carries the engine activity
	// leading up to it. Every event sits on the campaign clock and exec
	// index (a crash's is the FirstExec the merged Stats report), and
	// the dump's final event is the crashing exec's span.
	Flight *telemetry.FlightRecorder
}

// HubSync is the campaign-side face of a coordination hub: one
// two-way exchange of fuzzing state. Implementations must be safe for
// concurrent use (RunParallel units share one hub connection).
type HubSync interface {
	// Sync pushes the campaign snapshot and returns remote seeds to
	// import. A nil seed slice with nil error is a valid "nothing new"
	// response.
	Sync(ctx context.Context, st SyncState) ([]seedpool.SeedState, error)
}

// SyncState is the campaign snapshot handed to a hub sync. The hub
// client diffs it against what it already shipped, so handing the
// full cumulative state every time is correct and cheap.
type SyncState struct {
	// Seeds is the current corpus export (weight-ordered).
	Seeds []seedpool.SeedState
	// Cover is the campaign's covered-block set. Read-only for the
	// hook: the Final sync's aliases the returned Stats.
	Cover *vkernel.CoverSet
	// Execs is the budget spent so far.
	Execs int
	// Crashes holds every crash found so far, with cumulative counts.
	Crashes []CrashReport
	// Ops is the per-operator outcome so far.
	Ops []OpStat
	// Final marks the campaign-end sync: the hook should push but not
	// return imports (there is no campaign left to use them).
	Final bool
}

// Progress is one progress-callback update.
type Progress struct {
	// ShardsDone/ShardsTotal count work units that have run to their
	// end — budget spent or interrupted — out of the plan's (a serial
	// campaign is one unit). Units a cancellation kept from starting
	// are never done.
	ShardsDone, ShardsTotal int
	// Execs is the number of programs executed so far.
	Execs int
	// Cover and Crashes are the merged unique counts so far.
	Cover   int
	Crashes int
	// Ops is the merged per-operator scheduler snapshot so far (nil
	// until the first mutation has been credited).
	Ops []OpStat
	// ElapsedNs is the offset on Config.Clock, in nanoseconds, since
	// the campaign started (the store is open by then). It is monotone
	// non-decreasing across one campaign's update stream, giving
	// downstream consumers (trace files, the internal/sim calibration)
	// a time axis instead of having to infer time from exec counts.
	ElapsedNs int64
}

// OpStat is one mutation operator's campaign outcome: how often the
// scheduler picked it and how much new coverage its mutations found.
// Per-operator yield (NewBlocks/Picks) is the feedback signal the
// adaptive scheduler turns into selection weights. The tags are its
// form in the hub's JSON views and the -stats-json dump.
type OpStat struct {
	Name string `json:"name"`
	// Picks is the number of mutations credited to the operator.
	Picks int `json:"picks"`
	// NewBlocks is the total new-coverage yield of those mutations.
	NewBlocks int `json:"new_blocks"`
}

// DefaultShardExecs is the per-unit budget RunParallel uses when
// Config.ShardExecs is zero.
const DefaultShardExecs = 4096

// progressEvery is the serial campaign's progress-emission period.
const progressEvery = 1024

// DefaultConfig returns a campaign configuration with the standard
// knobs.
func DefaultConfig(execs int, seed int64) Config {
	return Config{Execs: execs, Seed: seed, MaxCalls: 8, MutateBias: 0.7}
}

// CrashReport is a deduplicated crash with discovery metadata.
type CrashReport struct {
	Title string
	// FirstExec is the execution index that first hit the crash.
	FirstExec int
	// Count is the number of times the crash reproduced.
	Count int
	// Repro is the crashing program text, minimized by the triage
	// pass unless Config.NoTriage was set.
	Repro string
}

// Stats is the outcome of one campaign.
type Stats struct {
	// Cover is the set of covered basic blocks.
	Cover *vkernel.CoverSet
	// Crashes maps crash title → report.
	Crashes map[string]*CrashReport
	// Execs is the number of executed programs.
	Execs int
	// CorpusSize is the number of retained seeds.
	CorpusSize int
	// Ops is the per-operator mutation outcome in canonical operator
	// order (merged by name across shards).
	Ops []OpStat
	// Elapsed is the campaign's wall-clock duration, from the moment
	// the store is open to the stamp after the final flush.
	Elapsed time.Duration
	// WorkTime is the summed busy time of the campaign's work units.
	// For a serial campaign it equals Elapsed; for RunParallel it is
	// the sum of per-unit busy times, so WorkTime/Elapsed
	// approximates the effective worker parallelism. It includes
	// triage and (in serial campaigns) hub syncs.
	WorkTime time.Duration
	// TriageTime is the portion of WorkTime spent minimizing crash
	// repros (zero with Config.NoTriage).
	TriageTime time.Duration
	// SyncTime is the wall-clock time spent in hub exchanges and
	// Syncs the number of exchanges attempted (zero when detached).
	SyncTime time.Duration
	Syncs    int
}

// CoverCount returns the number of covered blocks.
func (s *Stats) CoverCount() int { return s.Cover.Count() }

// UniqueCrashes returns the number of distinct crash titles.
func (s *Stats) UniqueCrashes() int { return len(s.Crashes) }

// CrashTitles returns the sorted crash titles.
func (s *Stats) CrashTitles() []string {
	out := make([]string, 0, len(s.Crashes))
	for t := range s.Crashes {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Fuzzer runs campaigns.
type Fuzzer struct {
	Target *prog.Target
	Kernel *vkernel.Kernel
	// NewExecutor, when set, supplies the executor each campaign
	// goroutine runs on — the seam for alternative kernels or
	// backends. Nil uses a reusable VM on Kernel. The factory is
	// called concurrently (RunRepetitions, RunParallel) and must
	// return a distinct executor per call; executors must be
	// deterministic for campaign results to be reproducible.
	NewExecutor func() vkernel.Executor
}

// New constructs a fuzzer for a compiled spec suite and kernel.
func New(t *prog.Target, k *vkernel.Kernel) *Fuzzer {
	return &Fuzzer{Target: t, Kernel: k}
}

// executor builds one campaign's executor.
func (f *Fuzzer) executor() vkernel.Executor {
	if f.NewExecutor != nil {
		return f.NewExecutor()
	}
	return f.Kernel.NewVM()
}

// newStats returns an empty campaign outcome. The coverage set is
// sized for the kernel when one is present; with only NewExecutor set
// (no Kernel) it grows on demand.
func (f *Fuzzer) newStats() *Stats {
	cover := &vkernel.CoverSet{}
	if f.Kernel != nil {
		cover = vkernel.NewCoverSet(f.Kernel.NumBlocks())
	}
	return &Stats{Cover: cover, Crashes: map[string]*CrashReport{}}
}

// Run executes one campaign to completion; it is a thin compatibility
// wrapper over RunContext.
func (f *Fuzzer) Run(cfg Config) *Stats {
	stats, _ := f.RunContext(context.Background(), cfg) //syzlint:ctx -- compatibility shim; new callers use RunContext
	return stats
}

// openStore resolves cfg's corpus-store configuration into a handle
// and the imported (validated) seed snapshot, frozen here, while one
// goroutine holds it: every unit imports and replays the same programs.
// A nil store means no persistence is configured.
func (f *Fuzzer) openStore(cfg Config) (*corpusstore.Store, []seedpool.SeedState, error) {
	if cfg.CorpusDir == "" {
		return nil, nil, nil
	}
	store, err := corpusstore.Open(cfg.CorpusDir)
	if err != nil {
		return nil, nil, err
	}
	seeds, rep, err := store.Load(f.Target)
	if err != nil {
		return nil, nil, err
	}
	if cfg.StoreReport != nil {
		cfg.StoreReport(*rep)
	}
	freeze(seeds)
	return store, seeds, nil
}

// freeze freezes programs that are about to be shared between units.
func freeze(seeds []seedpool.SeedState) {
	for _, st := range seeds {
		if st.Prog != nil { // Reconcile skips such a state too
			st.Prog.Freeze()
		}
	}
}

// corpusCap is the store/pool bound cfg selects.
func corpusCap(cfg Config) int {
	if cfg.CorpusCap > 0 {
		return cfg.CorpusCap
	}
	return seedpool.DefaultCapacity
}

// mergedCorpus merges the initial snapshot with the units' exports, in
// unit order: deduplicated, capacity-bounded, and deterministic for a
// fixed set of exports. It is what a store flush saves and what a
// sharded campaign's Final sync pushes.
func mergedCorpus(cfg Config, initial []seedpool.SeedState, exports [][]seedpool.SeedState) []seedpool.SeedState {
	return corpusstore.Merge(corpusCap(cfg), append([][]seedpool.SeedState{initial}, exports...)...)
}

// run is the step loop of work unit `unit` of d's plan: the unit's
// budget on the campaign seed (live plan) or its derived one (sharded),
// warm-started from the store snapshot plus whatever the hub has
// returned so far, folded into the Stats it returns with the evolved
// pool — the driver merges the one and exports the other.
// Cancellation is checked between executions, so the stats are always
// internally consistent. Every progressEvery execs the loop reports in
// at a tick boundary, where everything campaign-level — Progress,
// campaign counters, the flight window event, checkpoints, hub
// exchanges — happens; the loop itself records only what it alone
// sees: crash hits and crash events, unit busy time. default.pgo keys
// run by its name and line layout, so it stays a Fuzzer method (see
// above the loop).
func (f *Fuzzer) run(ctx context.Context, d *driver, unit int) (*Stats, *seedpool.Pool) {
	cfg := d.cfg
	cfg.Execs = d.plan.budget(unit)
	// stats is the driver's: the campaign's own on the live plan (which
	// is what lets a tick see cumulative state), a fresh Stats it merges
	// into the campaign when a sharded unit completes. Ops is laid out
	// below either way, one scheduler per unit.
	d.mu.Lock()
	stats, seeds := d.camp, d.seeds
	if len(d.remote) > 0 {
		// Like stored seeds, pulled ones are replayed against the
		// unit's budget (deduplicated, bounded).
		seeds = corpusstore.Merge(corpusCap(cfg), d.seeds, d.remote)
	}
	d.mu.Unlock()
	if !d.plan.live {
		cfg.Seed = unitSeed(cfg.Seed, unit)
		stats = f.newStats()
	}
	// Crash events sit on the campaign's clock and exec axis (mergeInto's).
	execBase := unit * d.plan.grain
	if cfg.MaxCalls == 0 {
		cfg.MaxCalls = 8
	}
	clk := cfg.Clock
	start := clk.Now()
	// The target is the syscall set: a per-driver run compiles its own.
	g := prog.NewGen(f.Target, cfg.Seed)
	g.NoLocality = cfg.NoLocality
	x := f.executor()
	// execute is the campaign's one exec site (candidates and warm-start
	// replays alike). On a reusable VM the program is lowered into a
	// recycled ExecProg and coverage is read back into a recycled buffer
	// — zero per-exec allocations — which is exactly what VM.Run does
	// minus its fresh Result; the returned Result is overwritten by the
	// next call. Custom Executors (a recorder, a real-executor bridge)
	// only offer Run.
	vm, _ := x.(*vkernel.VM)
	var cep prog.ExecProg
	var cres vkernel.Result
	execute := func(p *prog.Prog) *vkernel.Result {
		if vm == nil {
			return x.Run(p)
		}
		prog.CompileExecInto(p, &cep)
		cres.Crash, cres.Errno = vm.RunCompiled(&cep)
		cres.Cov = vm.AppendCover(cres.Cov[:0])
		return &cres
	}
	// The unit's busy time is stamped on every exit path (including
	// cancellation) so partial stats still carry calibration ground
	// truth; the driver sums WorkTime over units and stamps the
	// campaign's own Elapsed.
	defer func() {
		stats.Elapsed = clk.Now().Sub(start)
		stats.WorkTime = stats.Elapsed
		cfg.Metrics.unitDone(stats.Elapsed.Nanoseconds())
	}()
	corpus := seedpool.New(cfg.CorpusCap)
	sched := newSched(cfg)
	ops := sched.Ops()
	stats.Ops = make([]OpStat, len(ops))
	opIndex := make(map[string]int, len(ops))
	for i, op := range ops {
		stats.Ops[i].Name = op.Name()
		opIndex[op.Name()] = i
	}
	mctx := &prog.MutateCtx{
		MaxCalls: cfg.MaxCalls,
		Donor:    func() *prog.Prog { return corpus.Pick(g.R) },
	}
	// observe folds one execution result into the stats: new coverage
	// (returned) and crash discovery/dedup at execution index exec.
	observe := func(p *prog.Prog, res *vkernel.Result, exec int) int {
		newBlocks := 0
		for _, b := range res.Cov {
			if stats.Cover.Add(b) {
				newBlocks++
			}
		}
		if res.Crash != nil {
			cr := stats.Crashes[res.Crash.Title]
			if cr == nil {
				t0 := clk.Now()
				cr = &CrashReport{
					Title:     res.Crash.Title,
					FirstExec: exec,
					Repro:     triage(x, p, res.Crash.Title, cfg.NoTriage),
				}
				var triageNs int64
				if !cfg.NoTriage {
					dur := clk.Now().Sub(t0)
					stats.TriageTime += dur
					triageNs = dur.Nanoseconds()
					cfg.Metrics.triaged(triageNs)
				}
				stats.Crashes[res.Crash.Title] = cr
				// The crash span is recorded before the dump so the
				// dump's final event is the crashing exec.
				cfg.Flight.Record(telemetry.Event{
					Span: "crash", ElapsedNs: t0.Sub(d.start).Nanoseconds(),
					DurNs: triageNs, Execs: int64(execBase + exec), Detail: res.Crash.Title,
				})
				if cfg.Flight != nil {
					cfg.Flight.Dump(res.Crash.Title) // best-effort, like checkpoints
				}
			}
			cr.Count++
			cfg.Metrics.crashHit()
		}
		return newBlocks
	}
	// Warm start: import the stored snapshot with its scheduling
	// state intact, then replay each imported seed so the campaign's
	// coverage baseline includes the stored corpus. Replays spend
	// budget and can (re)discover crashes like any other execution.
	if len(seeds) > 0 {
		corpus.Reconcile(seeds)
		for _, st := range seeds {
			if stats.Execs >= cfg.Execs || ctx.Err() != nil {
				break
			}
			observe(st.Prog, execute(st.Prog), stats.Execs)
			stats.Execs++
		}
	}
	// default.pgo keys this loop's hot call sites (the pool's Reward and
	// Add at its bottom) by their line offset from the top of run: an
	// edit that moves them loses their profile-guided inlining until
	// the profile is re-recorded (README "Compiled execution & PGO"),
	// so lines are added to and removed from this function in pairs.
	for i := stats.Execs; i < cfg.Execs; i++ {
		if i%512 == 0 && ctx.Err() != nil {
			stats.CorpusSize = corpus.Len()
			return stats, corpus // the driver reads ctx.Err() itself
		}
		if i > 0 && i%progressEvery == 0 {
			// A full campaign boundary on the live plan (it may Reconcile
			// pulled seeds into corpus before the next pick), an exec-total
			// relay on a sharded one. Either way one campaign view feeds
			// Progress, the campaign counters and the flight ring.
			d.boundary(ctx, unit, stats, corpus, true)
		}
		var p *prog.Prog
		opIdx := -1
		var seedRef uint64
		if seed, ref := pickSeed(corpus, g, cfg.MutateBias); seed != nil {
			seedRef = ref
			var applied prog.Operator
			p, applied = g.MutateOp(seed, ops[sched.Pick(g.R)], mctx)
			// Credit follows the operator that actually mutated: an
			// inapplicable draw falls back (shuffle on a 2-call seed
			// runs mutateArg), and rewarding the requested operator
			// would teach the bandit another operator's yield.
			if applied != nil {
				if i, ok := opIndex[applied.Name()]; ok {
					opIdx = i
				}
			}
		} else {
			p = g.Generate(cfg.MaxCalls)
		}
		res := execute(p)
		stats.Execs++
		newBlocks := observe(p, res, i)
		opName := ""
		if opIdx >= 0 {
			// Feed the outcome back: the scheduler reweights the
			// operator, the pool reweights the seed's lineage.
			sched.Reward(opIdx, newBlocks)
			corpus.Reward(seedRef, newBlocks)
			stats.Ops[opIdx].Picks++
			stats.Ops[opIdx].NewBlocks += newBlocks
			opName = stats.Ops[opIdx].Name
		}
		// p is g's scratch, overwritten by the next iteration; the pool
		// copies it out only if it admits it.
		corpus.Add(p, newBlocks, opName)
	}
	stats.CorpusSize = corpus.Len()
	return stats, corpus
}

// syncState snapshots a campaign's counters, crash table (in sorted-
// title order) and operator stats, with the given cover set and seeds,
// for one hub exchange.
func syncState(stats *Stats, cover *vkernel.CoverSet, seeds []seedpool.SeedState, final bool) SyncState {
	st := SyncState{
		Seeds: seeds, Cover: cover, Execs: stats.Execs, Final: final,
		Crashes: make([]CrashReport, 0, len(stats.Crashes)),
		Ops:     append([]OpStat(nil), stats.Ops...),
	}
	for _, title := range stats.CrashTitles() {
		st.Crashes = append(st.Crashes, *stats.Crashes[title])
	}
	return st
}

// newSched builds the campaign's operator scheduler: adaptive by
// default, uniform for the ablation baseline.
func newSched(cfg Config) *prog.Scheduler {
	if cfg.UniformOps {
		return prog.NewUniformScheduler()
	}
	return prog.NewScheduler()
}

// pickSeed decides mutate-vs-generate and selects a seed (returning
// its lineage ref for Reward). The random draws (bias coin, then
// weighted pick) are made in a fixed order so campaigns are
// deterministic.
func pickSeed(corpus *seedpool.Pool, g *prog.Gen, bias float64) (*prog.Prog, uint64) {
	if corpus.Len() == 0 || g.R.Float64() >= bias {
		return nil, 0
	}
	return corpus.PickRef(g.R)
}

// triage produces the reported repro text for a fresh crash,
// minimizing on the campaign's own executor unless disabled.
func triage(x vkernel.Executor, p *prog.Prog, title string, skip bool) string {
	if skip {
		return p.Serialize()
	}
	return seedpool.Minimize(x, p, title).Serialize()
}

// RunRepetitions executes n independent campaigns with derived seeds
// and returns per-rep stats (the paper reports 3-repetition
// averages). Repetitions run concurrently on up to GOMAXPROCS
// workers; results are identical to running them serially because
// each repetition is an independent campaign with its own derived
// seed and executor. Config.Progress is suppressed for the individual
// repetitions (per-rep updates would interleave without attribution).
// Cancellation stops remaining work; completed repetitions keep their
// full stats and interrupted ones report partial stats.
//
// Corpus persistence (Config.CorpusDir) is ignored here: repetitions
// are independent experiments, and warm-starting later reps from
// earlier ones would couple them. Use Run/RunParallel per repetition
// to accumulate a store deliberately.
func (f *Fuzzer) RunRepetitions(ctx context.Context, cfg Config, n int) []*Stats {
	out := make([]*Stats, n)
	pool.Run(pool.Clamp(n, 0, runtime.GOMAXPROCS(0)), n, func(i int) {
		c := cfg
		c.Seed = RepSeed(cfg.Seed, i)
		c.Progress = nil
		c.CorpusDir = ""
		c.Hub = nil // like CorpusDir: sharing would couple the reps
		out[i], _ = f.RunContext(ctx, c)
	})
	return out
}

// RepSeed derives repetition i's campaign seed from a base seed —
// the one derivation shared by RunRepetitions and callers that run
// repetitions by hand (e.g. to shard each repetition).
func RepSeed(base int64, i int) int64 { return base + int64(i)*1000003 }

// MeanCover averages covered-block counts over repetitions.
func MeanCover(reps []*Stats) float64 {
	if len(reps) == 0 {
		return 0
	}
	sum := 0
	for _, s := range reps {
		sum += s.CoverCount()
	}
	return float64(sum) / float64(len(reps))
}

// MeanCrashes averages unique-crash counts over repetitions.
func MeanCrashes(reps []*Stats) float64 {
	if len(reps) == 0 {
		return 0
	}
	sum := 0
	for _, s := range reps {
		sum += s.UniqueCrashes()
	}
	return float64(sum) / float64(len(reps))
}

// UnionCover unions coverage across repetitions.
func UnionCover(reps []*Stats) *vkernel.CoverSet {
	out := &vkernel.CoverSet{}
	for _, s := range reps {
		out.Union(s.Cover)
	}
	return out
}

// UnionCrashTitles unions crash titles across repetitions.
func UnionCrashTitles(reps []*Stats) map[string]bool {
	out := map[string]bool{}
	for _, s := range reps {
		for t := range s.Crashes {
			out[t] = true
		}
	}
	return out
}

// UniqueTo returns the blocks covered by a but not b (Table 3's
// "Unique Cov" column).
func UniqueTo(a, b *vkernel.CoverSet) int { return a.Diff(b) }
