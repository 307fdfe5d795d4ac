package fuzz

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/pool"
	"kernelgpt/internal/telemetry"
)

// shardPlan decomposes a campaign budget into independent work units.
// The decomposition depends only on the config — never on the worker
// count — which is what makes RunParallel's merged results identical
// for any number of shards.
type shardPlan struct {
	grain int
	units int
	total int
	// live marks the one-unit plan of a serial campaign: the unit keeps
	// the campaign seed and fills the campaign's Stats directly, so its
	// ticks see cumulative state and are the campaign's boundaries. On
	// a sharded plan (live unset, one unit or many) units run on
	// derived seeds into Stats of their own, and the boundaries are
	// their completions. The entry points derive it; it is not a knob.
	live bool
}

// maxDefaultUnits caps the default decomposition so the per-unit
// budget — and with it corpus evolution depth — scales with the
// campaign budget instead of being pinned at DefaultShardExecs.
const maxDefaultUnits = 16

// UnitGrain is the per-unit budget of a sharded campaign of execs
// executions: shardExecs when positive, otherwise DefaultShardExecs
// scaled up so the budget splits into at most maxDefaultUnits units.
// The fleet simulator (internal/sim) plans its units by this rule too.
func UnitGrain(execs, shardExecs int) int {
	if shardExecs > 0 {
		return shardExecs
	}
	return max(DefaultShardExecs, (execs+maxDefaultUnits-1)/maxDefaultUnits)
}

func planShards(cfg Config) shardPlan {
	grain := UnitGrain(cfg.Execs, cfg.ShardExecs)
	units := (cfg.Execs + grain - 1) / grain
	if units < 1 {
		units = 1
	}
	return shardPlan{grain: grain, units: units, total: cfg.Execs}
}

// budget returns the execution budget of unit i.
func (p shardPlan) budget(i int) int {
	start := i * p.grain
	if rem := p.total - start; rem < p.grain {
		return rem
	}
	return p.grain
}

// unitSeed derives the campaign seed for unit i of a base seed. The
// derivation is a splitmix-style hash so unit campaigns are
// decorrelated from each other and from RunRepetitions' linear
// derivation.
func unitSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// RunContext executes one serial campaign — the live one-unit plan of
// the campaign driver (see the package comment) — honoring
// cancellation. Partial stats come back with the context error; a
// failed final store flush is joined into the returned error.
func (f *Fuzzer) RunContext(ctx context.Context, cfg Config) (*Stats, error) {
	return f.drive(ctx, cfg, shardPlan{grain: cfg.Execs, units: 1, total: cfg.Execs, live: true}, 1)
}

// RunParallel executes one campaign budget as a set of independent
// sharded sub-campaigns on a pool of `shards` worker goroutines and
// returns the merged Stats. The budget is decomposed into fixed-size
// work units (Config.ShardExecs each; by default the grain scales
// with the budget so at most maxDefaultUnits units exist) with
// deterministically derived seeds, so the merged coverage and crash
// sets are bitwise identical regardless of the worker count — shards
// only changes wall-clock time. Crash FirstExec indices are remapped
// into the global budget (unit i's executions occupy [i·grain,
// i·grain+budget)), which keeps discovery-time ordering meaningful
// after the merge. When two units hit the same crash title, the
// earliest remapped FirstExec's repro survives; an exact FirstExec
// tie is broken by lexicographically smaller repro text, so the
// merge never depends on unit completion order.
//
// Units restart corpus evolution from scratch, trading single-run
// corpus depth for restart diversity (empirically a wash or slight
// win on this substrate); for one maximally deep serial campaign use
// RunContext. ShardExecs = Execs is still a sharded plan: one unit on
// a derived seed whose only boundary is its completion.
//
// Every unit warm-starts from the same store snapshot plus whatever
// the hub had returned by the time it launched, replaying both against
// its own budget — so a detached run stays worker-count-invariant and
// a hub-attached one depends on sync timing. Progress reports the
// merged counts after each unit and, while units run, the live exec
// total (exec counts never regress; cover and crash counts advance as
// units complete).
func (f *Fuzzer) RunParallel(ctx context.Context, cfg Config, shards int) (*Stats, error) {
	return f.drive(ctx, cfg, planShards(cfg), shards)
}

// finalSyncGrace bounds the campaign-end hub exchange, which runs
// detached from the campaign context so that a cancelled campaign
// still delivers its last counters and releases its lease: a hub that
// never answers delays the return (or a Ctrl-C) by at most this.
const finalSyncGrace = 10 * time.Second

// driver is the state one campaign's units share. Units fold into it
// and boundaries read it under mu; drive itself touches it only before
// the units start and after they have all returned.
type driver struct {
	f     *Fuzzer
	cfg   Config
	plan  shardPlan
	start time.Time
	// store is nil when nothing is flushed (no CorpusDir, or
	// ReadOnlyCorpus); seeds is the snapshot every unit warm-starts from
	// either way.
	store *corpusstore.Store
	seeds []seedpool.SeedState

	mu   sync.Mutex
	camp *Stats // guarded by mu
	done int    // guarded by mu
	// relayed[i] is what running unit i's ticks have reported and its
	// completion has not merged yet, inFlight their sum: a unit's execs
	// move from inFlight into camp.Execs when it completes, so reported
	// totals never regress.
	relayed  []int // guarded by mu
	inFlight int   // guarded by mu
	// exports holds each unit's latest corpus export in unit order, so
	// a flush of the snapshot plus exports is deterministic for a fixed
	// set of completed units.
	exports [][]seedpool.SeedState // guarded by mu
	// remote accumulates what a sharded plan pulled from the hub; it
	// joins the warm start of the units that launch afterwards.
	remote []seedpool.SeedState // guarded by mu
	// last is the campaign view the previous boundary reported.
	last Progress // guarded by mu
}

// drive runs one campaign: it opens the store, schedules the plan's
// units on a worker pool, and — whatever happened to ctx meanwhile —
// ends with the Final hub exchange, the final store flush and the
// Elapsed stamp, in that order. It is the only code that does any of
// these; RunContext and RunParallel differ in the plan they hand it.
func (f *Fuzzer) drive(ctx context.Context, cfg Config, plan shardPlan, workers int) (*Stats, error) {
	store, seeds, err := f.openStore(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.ReadOnlyCorpus {
		store = nil
	}
	d := &driver{
		f: f, cfg: cfg, plan: plan, start: cfg.Clock.Now(), store: store, seeds: seeds,
		camp:    f.newStats(),
		relayed: make([]int, plan.units),
		exports: make([][]seedpool.SeedState, plan.units),
	}
	pool.Run(pool.Clamp(plan.units, workers, runtime.GOMAXPROCS(0)), plan.units, func(i int) { d.unit(ctx, i) })
	camp := d.camp
	// merged is the units' deterministic merged corpus, built at most
	// once: a sharded plan's Final push and the flush read the same one.
	var merged []seedpool.SeedState
	if !plan.live && cfg.Hub != nil || store != nil {
		merged = mergedCorpus(cfg, seeds, d.exports)
	}
	if cfg.Hub != nil {
		// Campaign-end push, marked Final so the hub can close out the
		// worker: the live pool's own export, or a sharded plan's
		// merged corpus.
		final := d.exports[0]
		if !plan.live {
			final = merged
		}
		grace, cancel := context.WithTimeout(context.WithoutCancel(ctx), finalSyncGrace)
		d.exchange(grace, syncState(camp, camp.Cover, final, true))
		cancel()
	}
	var saveErr error
	if store != nil {
		saveErr = store.Save(merged, camp.CoverCount())
	}
	camp.Elapsed = cfg.Clock.Now().Sub(d.start)
	if plan.live {
		camp.WorkTime = camp.Elapsed // the campaign is its one unit
	}
	return camp, errors.Join(ctx.Err(), saveErr)
}

// unit runs work unit i of the plan. A unit that has not started when
// ctx is done never does: it is not run, merged, counted or reported.
func (d *driver) unit(ctx context.Context, i int) {
	if ctx.Err() != nil {
		return
	}
	stats, corpus := d.f.run(ctx, d, i)
	d.boundary(ctx, i, stats, corpus, false)
}

// boundary is unit i reporting in, at a tick (every progressEvery
// execs of its loop) or at its completion. Every report brings the
// campaign view up to date and, when anyone watches, builds the one
// Progress every telemetry sink reads — the only place campaign-level
// numbers are computed, so the sinks agree with each other and with
// Stats at any shard count; a full boundary then checkpoints the store
// and exchanges with the hub, in that order:
//
//	              tick                    completion
//	live plan     full boundary           report only (drive's end sequence follows)
//	sharded plan  relay the exec count    merge the unit, full boundary
//
// Once ctx is done no boundary is full any more.
func (d *driver) boundary(ctx context.Context, i int, unit *Stats, corpus *seedpool.Pool, tick bool) {
	cfg, live := d.cfg, d.plan.live
	d.mu.Lock()
	switch {
	case live: // the unit fills camp itself
	case tick:
		d.inFlight += unit.Execs - d.relayed[i]
		d.relayed[i] = unit.Execs
	default:
		d.inFlight -= d.relayed[i]
		d.relayed[i] = 0
		mergeInto(d.camp, unit, i*d.plan.grain)
	}
	if !tick {
		d.done++
	}
	if cfg.Progress != nil || cfg.Metrics != nil || cfg.Flight != nil {
		// The campaign view, built once for every sink: the counters and
		// exec histogram take its advance since the previous boundary's,
		// the flight ring a window event, the callback the view itself.
		p := Progress{
			ShardsDone: d.done, ShardsTotal: d.plan.units,
			Execs: d.camp.Execs + d.inFlight, Cover: d.camp.CoverCount(),
			Crashes: d.camp.UniqueCrashes(),
			Ops:     append([]OpStat(nil), d.camp.Ops...),
			// One clock for the whole campaign: unit-local offsets are
			// never reported, so every stream stays monotone.
			ElapsedNs: cfg.Clock.Now().Sub(d.start).Nanoseconds(),
		}
		cfg.Metrics.boundary(&d.last, &p)
		d.last = p
		cfg.Flight.Record(telemetry.Event{Span: "window", ElapsedNs: p.ElapsedNs, Execs: int64(p.Execs)})
		if cfg.Progress != nil {
			cfg.Progress(p)
		}
	}
	// Read after the callback: a Progress hook that cancels the campaign
	// stops this very boundary from checkpointing and exchanging.
	full := tick == live && ctx.Err() == nil
	if (full || !tick) && (d.store != nil || cfg.Hub != nil) { // whoever flushes or pushes next needs the unit's latest
		d.exports[i] = corpus.Export()
	}
	if full && d.store != nil && cfg.Checkpoint {
		// Best-effort: a failed checkpoint must not kill the campaign;
		// the final flush surfaces persistent errors.
		d.store.Save(mergedCorpus(cfg, d.seeds, d.exports), d.camp.CoverCount())
	}
	if !full || cfg.Hub == nil {
		d.mu.Unlock()
		return
	}
	// The exchange runs outside mu — a slow hub must not stall other
	// units' merges — so it gets a copy of the cover set.
	st := syncState(d.camp, d.camp.Cover.Clone(), d.exports[i], false)
	d.mu.Unlock()
	pulled := d.exchange(ctx, st)
	if live {
		corpus.Reconcile(pulled) // weights reconciled, never demoted
		return
	}
	d.mu.Lock()
	d.remote = append(d.remote, pulled...)
	d.mu.Unlock()
}

// exchange runs one Hub.Sync with the cumulative campaign state — never
// a unit's local counters, which would masquerade as the worker's — on
// the campaign clock, and accounts it: Stats.Syncs/SyncTime, the
// sync-latency metric and the "sync" flight event. No seeds come back
// from a failed exchange (best-effort: the campaign runs detached until
// the next boundary retries) or from a Final one (no campaign is left
// to use them); the ones that do come back frozen.
func (d *driver) exchange(ctx context.Context, st SyncState) []seedpool.SeedState {
	cfg := d.cfg
	t0 := cfg.Clock.Now()
	remote, err := cfg.Hub.Sync(ctx, st)
	dur := cfg.Clock.Now().Sub(t0)
	cfg.Metrics.syncDone(dur.Nanoseconds())
	detail := ""
	if st.Final {
		detail = "final"
	}
	cfg.Flight.Record(telemetry.Event{
		Span: "sync", ElapsedNs: t0.Sub(d.start).Nanoseconds(),
		DurNs: dur.Nanoseconds(), Execs: int64(st.Execs), Detail: detail,
	})
	d.mu.Lock()
	d.camp.SyncTime += dur
	d.camp.Syncs++
	d.mu.Unlock()
	if err != nil || st.Final {
		return nil
	}
	freeze(remote) // like the store snapshot: here, before units share them
	return remote
}

// mergeInto folds one unit's stats into the merged campaign view.
// Every operation is commutative and order-independent (set union,
// min-by-totally-ordered-key, sum), so the merge result is identical
// for any unit completion order.
func mergeInto(dst, src *Stats, execBase int) {
	dst.Cover.Union(src.Cover)
	for title, cr := range src.Crashes {
		first := execBase + cr.FirstExec
		have := dst.Crashes[title]
		if have == nil {
			dst.Crashes[title] = &CrashReport{
				Title: title, FirstExec: first, Count: cr.Count, Repro: cr.Repro,
			}
			continue
		}
		have.Count += cr.Count
		// The surviving repro is the one from the earliest remapped
		// FirstExec; on an exact FirstExec tie (two units hitting the
		// same title at the same remapped index) the lexicographically
		// smaller repro text wins. Without the secondary key the
		// survivor would depend on unit completion order, breaking the
		// documented shard-count invariance.
		if first < have.FirstExec || (first == have.FirstExec && cr.Repro < have.Repro) {
			have.FirstExec = first
			have.Repro = cr.Repro
		}
	}
	dst.Execs += src.Execs
	dst.CorpusSize += src.CorpusSize
	// Wall-clock aggregates: the merged WorkTime is the sum of the
	// units' busy times; the campaign's Elapsed and its hub-sync
	// accounting are the driver's (units never sync).
	dst.WorkTime += src.WorkTime
	dst.TriageTime += src.TriageTime
	for _, op := range src.Ops {
		merged := false
		for i := range dst.Ops {
			if dst.Ops[i].Name == op.Name {
				dst.Ops[i].Picks += op.Picks
				dst.Ops[i].NewBlocks += op.NewBlocks
				merged = true
				break
			}
		}
		if !merged {
			dst.Ops = append(dst.Ops, op)
		}
	}
}
