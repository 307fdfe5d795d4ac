package fuzz

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// TestCampaignResumeWarmStart is the tentpole acceptance test: a
// campaign that persists its corpus, then a resumed campaign with 20%
// of the cold budget that must (a) load the stored seeds and (b)
// reach at least the stored corpus's block coverage — which a cold
// start at the same small budget does not.
func TestCampaignResumeWarmStart(t *testing.T) {
	const (
		coldBudget   = 10000
		resumeBudget = coldBudget / 5 // the ≤20% acceptance bound
	)
	dir := t.TempDir()
	// The bundled-driver + plumbing surface: large enough that a
	// resumeBudget-sized cold campaign cannot saturate it.
	tgt := plumbedTarget(t, "dm", "cec", "kvm", "kvm_vm", "kvm_vcpu")
	f := New(tgt, testKernel)

	cold := DefaultConfig(coldBudget, 21)
	cold.CorpusDir = dir
	coldStats, err := f.RunContext(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.CorpusSize == 0 {
		t.Fatal("cold campaign retained no seeds")
	}

	// The stored corpus's own block coverage: replay every stored
	// seed once on a fresh VM.
	store, err := corpusstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds, rep, err := store.Load(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded == 0 || len(rep.Skipped) != 0 {
		t.Fatalf("store load wrong: %+v", rep)
	}
	if rep.Loaded > resumeBudget {
		t.Fatalf("stored corpus (%d) exceeds the resume budget (%d); widen the test budgets", rep.Loaded, resumeBudget)
	}
	stored := vkernel.NewCoverSet(testKernel.NumBlocks())
	vm := testKernel.NewVM()
	for _, st := range seeds {
		for _, b := range vm.Run(st.Prog).Cov {
			stored.Add(b)
		}
	}
	if stored.Count() < 50 {
		t.Fatalf("stored corpus covers only %d blocks; test target broken", stored.Count())
	}

	var loaded int
	resume := DefaultConfig(resumeBudget, 99)
	resume.CorpusDir = dir
	resume.StoreReport = func(r corpusstore.Report) { loaded = r.Loaded }
	resumed, err := f.RunContext(context.Background(), resume)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != rep.Loaded {
		t.Fatalf("resumed campaign loaded %d seeds, want %d", loaded, rep.Loaded)
	}
	if missing := stored.Diff(resumed.Cover); missing != 0 {
		t.Fatalf("resumed campaign at %d execs missed %d stored-corpus blocks (%d vs %d)",
			resumeBudget, missing, resumed.CoverCount(), stored.Count())
	}

	// The warm start is what did that: a cold campaign with the same
	// small budget stays below the stored-corpus coverage.
	coldSmall := f.Run(DefaultConfig(resumeBudget, 99))
	if coldSmall.CoverCount() >= stored.Count() {
		t.Fatalf("cold %d-exec campaign already covers %d >= stored %d; acceptance test not discriminating",
			resumeBudget, coldSmall.CoverCount(), stored.Count())
	}
	if resumed.CoverCount() <= coldSmall.CoverCount() {
		t.Fatalf("warm start (%d blocks) did not beat cold start (%d blocks)",
			resumed.CoverCount(), coldSmall.CoverCount())
	}
}

// TestWarmStartPoolsAProgramOnce: a store can list one program under
// two files — its canonical file and an older or hand-made rendering —
// and both load as the program's one text. The warm start pools the
// program once, so the second file does not double its pick weight.
func TestWarmStartPoolsAProgramOnce(t *testing.T) {
	dir := t.TempDir()
	tgt := targetFor(t, "dm")
	text := prog.NewGen(tgt, 3).Generate(4).Serialize()
	store, err := corpusstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save([]seedpool.SeedState{{Text: text, Prio: 5}}, 0); err != nil {
		t.Fatal(err)
	}
	m, err := store.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	hand := "# the same program, rendered by hand\n" + text
	file := corpusstore.FileFor(hand)
	if err := os.WriteFile(filepath.Join(dir, file), []byte(hand), 0o644); err != nil {
		t.Fatal(err)
	}
	m.Seeds = append(m.Seeds, corpusstore.Entry{File: file, Prio: 5, Gen: m.Generation})
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	var rep corpusstore.Report
	cfg := DefaultConfig(2, 1) // the two replays, nothing after them
	cfg.CorpusDir = dir
	cfg.ReadOnlyCorpus = true
	cfg.StoreReport = func(r corpusstore.Report) { rep = r }
	stats, err := New(tgt, testKernel).RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 2 || len(rep.Skipped) != 0 {
		t.Fatalf("store fixture did not load both files: %+v", rep)
	}
	if stats.Execs != 2 || stats.CorpusSize != 1 {
		t.Fatalf("warm start pooled %d seeds after %d execs, want the one program once", stats.CorpusSize, stats.Execs)
	}
}

// TestCampaignResumeToleratesCorruptEntry: a corrupted store entry is
// skipped with a report; the campaign still runs and re-flushes a
// healthy store.
func TestCampaignResumeToleratesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	tgt := targetFor(t, "dm")
	f := New(tgt, testKernel)

	cold := DefaultConfig(3000, 5)
	cold.CorpusDir = dir
	if _, err := f.RunContext(context.Background(), cold); err != nil {
		t.Fatal(err)
	}
	store, err := corpusstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Seeds) < 2 {
		t.Fatalf("store too small to corrupt: %d seeds", len(m.Seeds))
	}
	if err := os.WriteFile(filepath.Join(dir, m.Seeds[0].File), []byte("zap\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var report corpusstore.Report
	resume := DefaultConfig(600, 6)
	resume.CorpusDir = dir
	resume.StoreReport = func(r corpusstore.Report) { report = r }
	stats, err := f.RunContext(context.Background(), resume)
	if err != nil {
		t.Fatalf("corrupt entry aborted the campaign: %v", err)
	}
	if len(report.Skipped) != 1 || !strings.Contains(report.Skipped[0].Reason, "corrupted") {
		t.Fatalf("corruption not reported: %+v", report)
	}
	if report.Loaded != len(m.Seeds)-1 {
		t.Fatalf("healthy entries not loaded: %+v", report)
	}
	if stats.Execs != 600 {
		t.Fatalf("budget not spent: %d", stats.Execs)
	}
	// The flush replaced the corrupt entry; the store is healthy again.
	if _, rep, err := store.Load(tgt); err != nil || len(rep.Skipped) != 0 {
		t.Fatalf("store not healthy after re-flush: %v %+v", err, rep)
	}
}

// TestRunParallelResumeShardInvariance: with a fixed store snapshot,
// warm-started sharded campaigns stay worker-count-invariant.
func TestRunParallelResumeShardInvariance(t *testing.T) {
	dir := t.TempDir()
	f := New(targetFor(t, "dm"), testKernel)

	cold := DefaultConfig(2000, 13)
	cold.CorpusDir = dir
	if _, err := f.RunContext(context.Background(), cold); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(4000, 17)
	cfg.ShardExecs = 1024
	cfg.CorpusDir = dir
	cfg.ReadOnlyCorpus = true // keep the snapshot fixed across runs
	base, err := f.RunParallel(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantCov, wantCrashes := mergedView(base)
	for _, shards := range []int{2, 4} {
		got, err := f.RunParallel(context.Background(), cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		cov, crashes := mergedView(got)
		if len(cov) != len(wantCov) {
			t.Fatalf("shards=%d: coverage diverged (%d vs %d)", shards, len(cov), len(wantCov))
		}
		for b := range wantCov {
			if _, ok := cov[b]; !ok {
				t.Fatalf("shards=%d: block %d missing", shards, b)
			}
		}
		if len(crashes) != len(wantCrashes) {
			t.Fatalf("shards=%d: crashes diverged", shards)
		}
		for title, want := range wantCrashes {
			if crashes[title] != want {
				t.Fatalf("shards=%d: crash %q diverged: %+v vs %+v", shards, title, crashes[title], want)
			}
		}
	}
}

// TestRunParallelCheckpointFlushes: with Checkpoint set, the store is
// written as units complete, so a campaign killed mid-run would still
// find corpus progress on disk. Verified here by the store being
// non-empty before... the campaign ends via the checkpoint path
// itself: a 1-unit-at-a-time progress hook observes the manifest
// growing.
func TestRunParallelCheckpointFlushes(t *testing.T) {
	dir := t.TempDir()
	f := New(targetFor(t, "dm"), testKernel)
	store, err := corpusstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3000, 9)
	cfg.ShardExecs = 1000
	cfg.CorpusDir = dir
	cfg.Checkpoint = true
	sawIntermediate := false
	cfg.Progress = func(p Progress) {
		if p.ShardsDone < p.ShardsTotal {
			if m, err := store.Manifest(); err == nil && len(m.Seeds) > 0 {
				sawIntermediate = true
			}
		}
	}
	if _, err := f.RunParallel(context.Background(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	if !sawIntermediate {
		t.Fatal("no intermediate checkpoint flush observed")
	}
}

// sharedHub is a HubSync safe for concurrent units that serves the same
// remote programs on every non-final exchange.
type sharedHub struct {
	mu     sync.Mutex
	remote []seedpool.SeedState
	syncs  int
}

func (h *sharedHub) Sync(ctx context.Context, st SyncState) ([]seedpool.SeedState, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.syncs++
	if st.Final {
		return nil, nil
	}
	return h.remote, nil
}

// TestFreezeBeforeFanOut: the units of a sharded campaign import,
// replay and mutate from the same stored and pulled programs at the
// same time, and a pool freezes what it admits — a write. So the
// driver freezes both kinds itself, on one goroutine, before any unit
// sees them. Frozen is visible from outside: a candidate mutated from
// a frozen seed shares the seed's calls by pointer. The stored snapshot
// must come out of openStore that way, and so must a pulled program no
// pool would ever admit and freeze (priority 0) come out of a campaign.
// Under -race, which is how CI runs this package, a program first
// frozen by two units' pools at once is also a reported race.
func TestFreezeBeforeFanOut(t *testing.T) {
	dir := t.TempDir()
	tgt := targetFor(t, "dm")
	f := New(tgt, testKernel)
	cold := DefaultConfig(2000, 13)
	cold.CorpusDir = dir
	if _, err := f.RunContext(context.Background(), cold); err != nil {
		t.Fatal(err)
	}
	g := prog.NewGen(tgt, 1)
	frozen := func(p *prog.Prog) bool {
		m, _ := g.MutateOp(p, prog.OpInsert{}, nil)
		return m.Calls[0] == p.Calls[0]
	}

	cfg := DefaultConfig(8192, 17)
	cfg.ShardExecs = 1024
	cfg.CorpusDir = dir
	cfg.ReadOnlyCorpus = true
	_, seeds, err := f.openStore(cfg)
	if err != nil || len(seeds) == 0 {
		t.Fatalf("openStore: %d seeds, %v", len(seeds), err)
	}
	for i, st := range seeds {
		if !frozen(st.Prog) {
			t.Fatalf("stored seed %d left openStore unfrozen", i)
		}
	}

	hub := &sharedHub{}
	for i := 0; i < 4; i++ {
		hub.remote = append(hub.remote, remoteSeed(g.Generate(4), 100*i))
	}
	cfg.Hub = hub
	stats, err := f.RunParallel(context.Background(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Execs != cfg.Execs || hub.syncs != 9 {
		t.Fatalf("%d execs, %d syncs; want %d and 9 (8 unit boundaries + final)", stats.Execs, hub.syncs, cfg.Execs)
	}
	for i, st := range hub.remote {
		if !frozen(st.Prog) {
			t.Fatalf("pulled seed %d (priority %d) reached the units unfrozen", i, st.Prio)
		}
	}
}
