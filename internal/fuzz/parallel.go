package fuzz

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/pool"
)

// shardPlan decomposes a campaign budget into independent work units.
// The decomposition depends only on the config — never on the worker
// count — which is what makes RunParallel's merged results identical
// for any number of shards.
type shardPlan struct {
	grain int
	units int
	total int
}

// maxDefaultUnits caps the default decomposition so the per-unit
// budget — and with it corpus evolution depth — scales with the
// campaign budget instead of being pinned at DefaultShardExecs.
const maxDefaultUnits = 16

func planShards(cfg Config) shardPlan {
	grain := cfg.ShardExecs
	if grain <= 0 {
		grain = DefaultShardExecs
		if scaled := (cfg.Execs + maxDefaultUnits - 1) / maxDefaultUnits; scaled > grain {
			grain = scaled
		}
	}
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
// Run, or set ShardExecs = Execs.
//
// With Config.CorpusDir set, the store is loaded once up front and
// every unit warm-starts from that same snapshot (imports it and
// replays it against its own budget), so the decomposition stays
// worker-count-invariant. Completed units' corpora are merged back
// deterministically — in unit order, deduplicated, capacity-bounded —
// and flushed when the campaign ends; Config.Checkpoint additionally
// flushes after each completed unit (those intermediate store states
// depend on completion order, the final flush does not).
//
// With Config.Hub set, units do not sync individually (their local
// counters would masquerade as the worker's cumulative stats);
// instead one exchange runs after each completed unit with the merged
// campaign state — cumulative and monotone — plus a Final push when
// the campaign ends. Remote seeds pulled at a boundary warm-start the
// units that launch afterwards (merged into their snapshot and
// replayed, like stored seeds), which makes unit warm-starts depend
// on sync timing when units run concurrently — one more reason the
// detached determinism guarantees do not transfer to hub-attached
// runs.
//
// Cancellation stops unstarted units and interrupts running ones; the
// partial merge and ctx.Err() are returned. Config.Progress, when
// set, is invoked after each unit completes with the merged counts so
// far, and periodically while units run: running units relay their
// serial progress every progressEvery execs, and the aggregated
// update reports the live exec total (merged units plus every running
// unit's last report) alongside the merged-so-far cover and crash
// counts. Exec counts are monotone non-decreasing across the whole
// update stream; cover and crash counts advance when units complete.
func (f *Fuzzer) RunParallel(ctx context.Context, cfg Config, shards int) (*Stats, error) {
	store, seeds, err := f.openStore(cfg)
	if err != nil {
		return nil, err
	}
	clk := cfg.Clock
	start := clk.Now()
	plan := planShards(cfg)
	merged := &Stats{
		Cover:   f.newCover(),
		Crashes: map[string]*CrashReport{},
	}
	var mu sync.Mutex
	done := 0
	// liveExecs tracks each running unit's last progress report;
	// sumLive is their sum. A unit's contribution moves from sumLive
	// into merged.Execs when it completes, so emitted exec totals
	// never regress.
	liveExecs := make([]int, plan.units)
	sumLive := 0
	emit := func() {
		cfg.Progress(Progress{
			ShardsDone: done, ShardsTotal: plan.units,
			Execs: merged.Execs + sumLive, Cover: merged.CoverCount(),
			Crashes: merged.UniqueCrashes(),
			Ops:     append([]OpStat(nil), merged.Ops...),
			// One clock for the whole merged stream: unit-local
			// offsets are not relayed, so the stream stays monotone.
			ElapsedNs: clk.Now().Sub(start).Nanoseconds(),
		})
	}
	// exports holds every completed unit's corpus in unit order, so a
	// flush of the snapshot plus exports is deterministic for a fixed
	// set of completed units.
	exports := make([][]seedpool.SeedState, plan.units)
	// Hub attachment: units must not inherit cfg.Hub — each would push
	// its unit-local counters as the worker's cumulative stats.
	// Instead, one exchange runs at every unit boundary with the
	// merged (cumulative, monotone) campaign state, and pulled remote
	// seeds warm-start the units that launch afterwards.
	var remote []seedpool.SeedState
	exchange := func(st SyncState) {
		pulled, d := hubExchange(ctx, cfg, st, start)
		mu.Lock()
		merged.SyncTime += d
		merged.Syncs++
		remote = append(remote, pulled...)
		mu.Unlock()
	}
	pool.Run(pool.Clamp(plan.units, shards, runtime.GOMAXPROCS(0)), plan.units, func(i int) {
		c := cfg
		c.Execs = plan.budget(i)
		c.Seed = unitSeed(cfg.Seed, i)
		c.Hub = nil
		c.Progress = nil
		if cfg.Progress != nil {
			c.Progress = func(p Progress) {
				// The unit's own final update (ShardsDone=1) is
				// superseded by the authoritative merge below; relay
				// only the periodic ones.
				if p.ShardsDone != 0 {
					return
				}
				mu.Lock()
				sumLive += p.Execs - liveExecs[i]
				liveExecs[i] = p.Execs
				emit()
				mu.Unlock()
			}
		}
		mu.Lock()
		campSeeds := seeds
		if len(remote) > 0 {
			// Remote seeds pulled so far join the warm-start snapshot
			// (deduplicated, bounded); like stored seeds, they are
			// replayed against the unit's budget.
			campSeeds = corpusstore.Merge(corpusCap(cfg), seeds, remote)
		}
		mu.Unlock()
		unit, corpus, _ := f.run(ctx, c, campaign{seeds: campSeeds})
		mu.Lock()
		sumLive -= liveExecs[i]
		liveExecs[i] = 0
		mergeInto(merged, unit, i*plan.grain)
		done++
		if store != nil || cfg.Hub != nil {
			exports[i] = corpus.Export()
		}
		if store != nil && !cfg.ReadOnlyCorpus && cfg.Checkpoint {
			// Best-effort; the final flush surfaces errors.
			flushStore(store, cfg, merged.CoverCount(), seeds, exports...)
		}
		var sync SyncState
		if cfg.Hub != nil {
			sync = syncState(merged, merged.Cover.Clone(), exports[i], false)
		}
		if cfg.Progress != nil {
			emit()
		}
		mu.Unlock()
		if cfg.Hub != nil {
			exchange(sync) // outside mu: a slow hub must not stall merges
		}
	})
	if cfg.Hub != nil {
		// Campaign-end push: the deterministic merged corpus and final
		// counters, marked Final so the hub can close out the worker.
		final := corpusstore.Merge(corpusCap(cfg), append([][]seedpool.SeedState{seeds}, exports...)...)
		exchange(syncState(merged, merged.Cover.Clone(), final, true))
	}
	var saveErr error
	if store != nil && !cfg.ReadOnlyCorpus {
		saveErr = flushStore(store, cfg, merged.CoverCount(), seeds, exports...)
	}
	merged.Elapsed = clk.Now().Sub(start)
	return merged, errors.Join(ctx.Err(), saveErr)
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
	// Wall-clock aggregates: a unit is a serial campaign, so its
	// Elapsed is one unit's busy time ("per-unit elapsed"); the merged
	// WorkTime is their sum. Elapsed of the merged campaign is stamped
	// by RunParallel itself from its own clock.
	dst.WorkTime += src.WorkTime
	dst.TriageTime += src.TriageTime
	dst.SyncTime += src.SyncTime
	dst.Syncs += src.Syncs
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
