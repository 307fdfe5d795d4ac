package hub

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/vkernel"
)

var (
	testCorpus = corpus.Build(corpus.TestConfig())
	testKernel = vkernel.New(testCorpus)
)

func targetFor(t testing.TB, names ...string) *prog.Target {
	t.Helper()
	f := &syzlang.File{}
	for _, n := range names {
		h := testCorpus.Handler(n)
		if h == nil {
			t.Fatalf("no handler %q", n)
		}
		f.Merge(corpus.OracleSpec(h))
	}
	tgt, err := prog.Compile(f, testCorpus.Env())
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// stateOf is p's seed state as a campaign exports it: rendered.
func stateOf(p *prog.Prog, prio int) seedpool.SeedState {
	return seedpool.SeedState{Prog: p, Text: p.Serialize(), Prio: prio}
}

// newHub spins up a hub over a fresh store and its HTTP server.
func newHub(t *testing.T, tgt *prog.Target, opts ...Option) (*Hub, *httptest.Server) {
	t.Helper()
	store, err := corpusstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(tgt, store, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Handler())
	t.Cleanup(srv.Close)
	return h, srv
}

func TestRegisterSyncPullRoundTrip(t *testing.T) {
	tgt := targetFor(t, "dm")
	hub, srv := newHub(t, tgt)
	ctx := context.Background()

	c1, err := Dial(ctx, srv.URL, "alpha", tgt)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(ctx, srv.URL, "beta", tgt)
	if err != nil {
		t.Fatal(err)
	}
	if c1.WorkerID() == c2.WorkerID() {
		t.Fatalf("workers share an id: %s", c1.WorkerID())
	}
	if c1.HubFingerprint != Fingerprint(tgt) {
		t.Fatalf("hub fingerprint %q, want %q", c1.HubFingerprint, Fingerprint(tgt))
	}

	// Worker 1 pushes a small corpus, coverage, and a crash.
	g := prog.NewGen(tgt, 1)
	var seeds []seedpool.SeedState
	cover := vkernel.NewCoverSet(16)
	for _, b := range []vkernel.BlockID{1, 2, 5} {
		cover.Add(b)
	}
	for i := 0; i < 3; i++ {
		seeds = append(seeds, stateOf(g.Generate(3).Detach(), i+1))
	}
	crash := fuzz.CrashReport{Title: "bug-a", Repro: seeds[0].Prog.Serialize(), Count: 2}
	remote, err := c1.Sync(ctx, fuzz.SyncState{
		Seeds: seeds, Cover: cover, Execs: 100,
		Crashes: []fuzz.CrashReport{crash},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != 3 {
		t.Fatalf("pusher pulled %d seeds back, want its own 3 (gen diff includes them)", len(remote))
	}

	// Worker 2 pulls the merged corpus on an empty push.
	remote2, err := c2.Sync(ctx, fuzz.SyncState{Cover: &vkernel.CoverSet{}, Execs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(remote2) != 3 {
		t.Fatalf("worker 2 pulled %d seeds, want 3", len(remote2))
	}
	if c2.gen != hub.Stats().Generation {
		t.Fatalf("client gen %d != hub gen %d", c2.gen, hub.Stats().Generation)
	}

	// A second pull with nothing new ships nothing.
	remote3, err := c2.Sync(ctx, fuzz.SyncState{Cover: &vkernel.CoverSet{}, Execs: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(remote3) != 0 {
		t.Fatalf("idle pull shipped %d seeds", len(remote3))
	}

	st := hub.Stats()
	if st.Seeds != 3 || st.UnionCover != 3 || st.Execs != 100+60 || st.Crashes != 1 {
		t.Fatalf("hub stats wrong: %+v", st)
	}
	if len(st.Workers) != 2 || st.Workers[0].Name != "alpha" || st.Workers[1].Name != "beta" {
		t.Fatalf("worker roster wrong: %+v", st.Workers)
	}
}

// TestHubRejectsWrongFixedArrayCount: a pushed seed whose dm_ioctl.name
// holds 127 elements instead of 128 does not parse against the hub's
// target, so it is counted in rejected_seeds and never merged; the
// well-formed seed pushed beside it is.
func TestHubRejectsWrongFixedArrayCount(t *testing.T) {
	tgt := targetFor(t, "dm")
	hub, srv := newHub(t, tgt)
	ctx := context.Background()
	c, err := Dial(ctx, srv.URL, "edited", tgt)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.NewGen(tgt, 2)
	var good, bad *prog.Prog
	for i := 0; i < 100 && bad == nil; i++ {
		p := g.Generate(4).Detach()
		for _, call := range p.Calls {
			call.ForEachValue(func(v *prog.Value) {
				if bad == nil && v.Type.Kind == prog.KindArray && v.Type.Elem.Kind == prog.KindInt && v.Type.FixedLen == 128 {
					good = p.Clone()
					v.TruncateRun(127)
					bad = p
				}
			})
		}
	}
	if bad == nil {
		t.Fatal("no generated program held a dm_ioctl")
	}
	seeds := []seedpool.SeedState{
		{Prog: bad, Text: bad.Serialize(), Prio: 1},
		{Prog: good, Text: good.Serialize(), Prio: 1},
	}
	if _, err := c.Sync(ctx, fuzz.SyncState{Seeds: seeds, Cover: &vkernel.CoverSet{}}); err != nil {
		t.Fatal(err)
	}
	if st := hub.Stats(); st.RejectedSeeds != 1 || st.Seeds != 1 {
		t.Fatalf("hub holds %d seeds with %d rejected, want the well-formed one held and the 127-element one rejected", st.Seeds, st.RejectedSeeds)
	}
}

// TestCrashDedupFirstReporterWins: two workers report one title, each
// with its own repro. The hub holds one record for the title, with the
// first reporter's repro and attribution and both workers' hits.
func TestCrashDedupFirstReporterWins(t *testing.T) {
	tgt := targetFor(t, "dm")
	hub, srv := newHub(t, tgt)
	ctx := context.Background()
	c1, _ := Dial(ctx, srv.URL, "first", tgt)
	c2, _ := Dial(ctx, srv.URL, "second", tgt)

	g := prog.NewGen(tgt, 3)
	repro1, repro2 := g.Generate(2).Serialize(), g.Generate(3).Serialize()
	if repro1 == repro2 {
		t.Fatal("the two repros are one program, the test checks nothing")
	}
	push := func(c *Client, repro string, count int) {
		t.Helper()
		_, err := c.Sync(ctx, fuzz.SyncState{
			Cover:   &vkernel.CoverSet{},
			Crashes: []fuzz.CrashReport{{Title: "bug-x", Repro: repro, Count: count}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	push(c1, repro1, 3)
	push(c2, repro2, 4)

	crashes := hub.Crashes()
	if len(crashes) != 1 || hub.Stats().Crashes != 1 {
		t.Fatalf("one title reported under two repros is not one record: %+v", crashes)
	}
	cr := crashes[0]
	if cr.FirstWorker != c1.WorkerID() || cr.Repro != repro1 {
		t.Fatalf("first reporter lost: %q with repro %q, want %q with %q", cr.FirstWorker, cr.Repro, c1.WorkerID(), repro1)
	}
	if cr.Count != 7 || cr.Workers != 2 || cr.Reports != 2 {
		t.Fatalf("duplicate accounting wrong: %+v", cr)
	}
	// Client-side dedup: re-syncing an unchanged crash pushes nothing.
	push(c1, repro1, 3)
	if got := hub.Crashes()[0]; got.Reports != 2 || got.Count != 7 {
		t.Fatalf("unchanged crash re-pushed: %+v", got)
	}
}

func TestHubRestartClientReregisters(t *testing.T) {
	tgt := targetFor(t, "dm")
	dir := t.TempDir()
	store, err := corpusstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := New(tgt, store)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h1.Handler())
	defer srv.Close()
	ctx := context.Background()
	c, err := Dial(ctx, srv.URL, "w", tgt)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.NewGen(tgt, 5)
	cover := vkernel.NewCoverSet(16)
	for _, b := range []vkernel.BlockID{1, 4, 9} {
		cover.Add(b)
	}
	state := fuzz.SyncState{
		Seeds:   []seedpool.SeedState{stateOf(g.Generate(3).Detach(), 2)},
		Cover:   cover,
		Execs:   200,
		Crashes: []fuzz.CrashReport{{Title: "bug-r", Repro: g.Generate(2).Serialize(), Count: 3}},
	}
	if _, err := c.Sync(ctx, state); err != nil {
		t.Fatal(err)
	}

	// Restart without the state sidecar: a fresh hub over the same
	// store loses the worker table but keeps the corpus and its
	// generation lineage.
	if err := os.Remove(filepath.Join(dir, "hubstate.json")); err != nil {
		t.Fatal(err)
	}
	store2, err := corpusstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := New(tgt, store2)
	if err != nil {
		t.Fatal(err)
	}
	srv.Config.Handler = h2.Handler()

	// The next sync carries the same cumulative campaign state; the
	// client must notice the restart and re-push the full cover and
	// crash history (the hub's union cover and crash table went with
	// the sidecar — without the re-push they would stay empty).
	if _, err := c.Sync(ctx, state); err != nil {
		t.Fatalf("sync across hub restart: %v", err)
	}
	st := h2.Stats()
	if len(st.Workers) != 1 || st.Workers[0].Name != "w" {
		t.Fatalf("client did not re-register with the restarted hub: %+v", st.Workers)
	}
	if st.Seeds != 1 {
		t.Fatalf("restarted hub lost the corpus: %d seeds", st.Seeds)
	}
	if st.UnionCover != 3 {
		t.Fatalf("pre-restart coverage not re-pushed: union %d, want 3", st.UnionCover)
	}
	if st.Crashes != 1 || h2.Crashes()[0].Count != 3 {
		t.Fatalf("pre-restart crashes not re-pushed: %+v", h2.Crashes())
	}
	if c.gen != st.Generation {
		t.Fatalf("client gen %d not resynced to restarted hub's %d", c.gen, st.Generation)
	}
}

// TestHubRestartResumesByDefault: a hub built without WithStatePath
// keeps its state beside its store, so a hub restarted over the same
// store restores union cover, the crash table and the worker's lease —
// the client's next sync resumes the same worker with deltas only, and
// nothing is counted twice.
func TestHubRestartResumesByDefault(t *testing.T) {
	tgt := targetFor(t, "dm")
	dir := t.TempDir()
	open := func() *Hub {
		t.Helper()
		store, err := corpusstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		h, err := New(tgt, store)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1 := open()
	srv := httptest.NewServer(h1.Handler())
	defer srv.Close()
	ctx := context.Background()
	c, err := Dial(ctx, srv.URL, "w", tgt)
	if err != nil {
		t.Fatal(err)
	}
	repro := prog.NewGen(tgt, 5).Generate(2).Serialize()
	crash := func(n int) []fuzz.CrashReport {
		return []fuzz.CrashReport{{Title: "bug-r", Repro: repro, Count: n}}
	}
	if _, err := c.Sync(ctx, fuzz.SyncState{Cover: coverOf(1, 4, 9), Execs: 200, Crashes: crash(3)}); err != nil {
		t.Fatal(err)
	}
	id0, lease0 := c.WorkerID(), c.leaseID
	before := h1.Stats()

	h2 := open()
	srv.Config.Handler = h2.Handler()
	// The restarted hub reports what the old one did, down to the
	// worker's sync aggregate of the exchange just served.
	if st := h2.Stats(); st.UnionCover != before.UnionCover || st.Crashes != 1 || st.ActiveLeases != 1 ||
		!reflect.DeepEqual(st.Workers, before.Workers) || st.Workers[0].ID != id0 {
		t.Fatalf("restarted hub forgot its state: %+v, before %+v", st, before)
	}
	if _, err := c.Sync(ctx, fuzz.SyncState{Cover: coverOf(1, 4, 9, 16), Execs: 300, Crashes: crash(4)}); err != nil {
		t.Fatalf("sync across hub restart: %v", err)
	}
	if c.WorkerID() != id0 || c.leaseID != lease0 {
		t.Fatalf("client re-registered: %s/%s -> %s/%s", id0, lease0, c.WorkerID(), c.leaseID)
	}
	st := h2.Stats()
	if len(st.Workers) != 1 || st.UnionCover != 4 {
		t.Fatalf("after the resumed sync: %d workers, union %d, want 1 and 4", len(st.Workers), st.UnionCover)
	}
	// Cumulative count 4 differenced against the restored 3.
	if got := h2.Crashes(); len(got) != 1 || got[0].Count != 4 || got[0].Reports != 2 {
		t.Fatalf("crash table across the restart: %+v, want one record counting 4 from 2 reports", got)
	}
}

// TestTwoHalfBudgetWorkersMatchLoneWorker is the subsystem's
// acceptance bar: two hub-attached campaigns at budget B/2 each must
// reach at least 95% of a detached campaign's coverage at budget B —
// pooling via the hub recovers what halving the budget loses. The
// workers run sequentially, so the whole exchange is deterministic
// per seed; the run is repeated to prove it. The hub's crash table
// must hold no duplicate normalized repros across the workers, and one
// record for each title the two campaigns found.
func TestTwoHalfBudgetWorkersMatchLoneWorker(t *testing.T) {
	tgt := targetFor(t, "dm", "cec", "kvm", "kvm_vm", "kvm_vcpu")
	f := fuzz.New(tgt, testKernel)
	const budget = 8000

	lone := f.Run(fuzz.DefaultConfig(budget, 1))

	runWorkers := func() (int, []int, []CrashJSON) {
		hub, srv := newHub(t, tgt)
		ctx := context.Background()
		titles := map[string]bool{}
		var covers []int
		for i, seed := range []int64{2, 3} {
			c, err := Dial(ctx, srv.URL, []string{"w-a", "w-b"}[i], tgt)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fuzz.DefaultConfig(budget/2, seed)
			cfg.Hub = c
			s, err := f.RunContext(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			covers = append(covers, s.CoverCount())
			for title := range s.Crashes {
				titles[title] = true
			}
		}
		crashes := hub.Crashes()
		if len(titles) == 0 {
			t.Fatal("the campaigns found no crash, the crash checks check nothing")
		}
		if len(crashes) != len(titles) || hub.Stats().Crashes != len(titles) {
			t.Fatalf("hub holds %d crash records for the campaigns' %d titles", len(crashes), len(titles))
		}
		for _, cr := range crashes {
			if !titles[cr.Title] {
				t.Fatalf("hub holds a crash no campaign found: %q", cr.Title)
			}
		}
		return hub.Stats().UnionCover, covers, crashes
	}

	union, covers, crashes := runWorkers()
	if min := lone.CoverCount() * 95 / 100; union < min {
		t.Fatalf("hub union cover %d < 95%% of lone worker's %d", union, lone.CoverCount())
	}
	for i, c := range covers {
		if union < c {
			t.Fatalf("union %d below worker %d's own cover %d", union, i, c)
		}
	}
	// The corpus actually transfers: the second worker, warm with the
	// first's seeds, must beat its own detached twin (same seed, same
	// budget, no hub).
	detached := f.Run(fuzz.DefaultConfig(budget/2, 3))
	if covers[1] <= detached.CoverCount() {
		t.Fatalf("hub attachment did not help worker b: %d attached vs %d detached",
			covers[1], detached.CoverCount())
	}
	// No duplicate normalized repros across workers: every record is
	// unique by construction of the table; verify the records also
	// don't collide after a fresh normalization pass.
	seen := map[string]bool{}
	for _, cr := range crashes {
		key := cr.Repro
		if p, err := prog.Deserialize(tgt, cr.Repro); err == nil {
			key = p.Serialize()
		}
		if seen[key] {
			t.Fatalf("crash table holds a duplicate normalized repro: %q", cr.Title)
		}
		seen[key] = true
	}
	union2, covers2, _ := runWorkers()
	if union2 != union || covers2[0] != covers[0] || covers2[1] != covers[1] {
		t.Fatalf("hub-attached run not deterministic per seed: %d %v vs %d %v",
			union, covers, union2, covers2)
	}
}

func TestFingerprintStable(t *testing.T) {
	a := Fingerprint(targetFor(t, "dm", "cec"))
	b := Fingerprint(targetFor(t, "cec", "dm"))
	if a != b {
		t.Fatalf("fingerprint depends on declaration order: %s vs %s", a, b)
	}
	if a == Fingerprint(targetFor(t, "dm")) {
		t.Fatal("different surfaces share a fingerprint")
	}
}

// TestHubServesLegacyGenZeroStore: a hub warm-started from a
// pre-generation manifest (entries without gen stamps) must still
// serve that corpus to first-time pullers.
func TestHubServesLegacyGenZeroStore(t *testing.T) {
	tgt := targetFor(t, "dm")
	dir := t.TempDir()
	store, err := corpusstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.NewGen(tgt, 21)
	var seeds []seedpool.SeedState
	for i := 0; i < 3; i++ {
		seeds = append(seeds, stateOf(g.Generate(3).Detach(), i+1))
	}
	if err := store.Save(seeds, 7); err != nil {
		t.Fatal(err)
	}
	// Strip the generation bookkeeping, as a manifest written before
	// this PR would look.
	path := filepath.Join(dir, "manifest.json")
	var m map[string]any
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "generation")
	for _, e := range m["seeds"].([]any) {
		delete(e.(map[string]any), "gen")
	}
	data, _ = json.Marshal(m)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	h, err := New(tgt, store)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	c, err := Dial(context.Background(), srv.URL, "w", tgt)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Sync(context.Background(), fuzz.SyncState{Cover: &vkernel.CoverSet{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != 3 {
		t.Fatalf("first pull from a legacy store shipped %d of 3 seeds", len(remote))
	}
}

// TestCrashReportRetryIdempotent: replaying an identical sync request
// (a client retry after a lost response) must not inflate the crash
// table — counts are cumulative per worker and differenced hub-side.
func TestCrashReportRetryIdempotent(t *testing.T) {
	tgt := targetFor(t, "dm")
	hub, srv := newHub(t, tgt)
	var reg RegisterResponse
	postJSON(t, srv.URL+"/v1/register", RegisterRequest{Version: ProtoVersion, Name: "w", Fingerprint: "fp"}, &reg)
	repro := prog.NewGen(tgt, 31).Generate(2).Serialize()
	req := SyncRequest{
		WorkerID: reg.WorkerID, LeaseID: reg.LeaseID,
		Crashes: []fuzz.CrashReport{{Title: "bug-i", Repro: repro, Count: 5}},
		Stats:   WorkerStats{Execs: 100},
	}
	sync := func() {
		t.Helper()
		if code, _ := rawSync(t, srv.URL, req); code != http.StatusOK {
			t.Fatalf("sync answered %d", code)
		}
	}
	sync()
	sync() // the retry
	crashes := hub.Crashes()
	if len(crashes) != 1 || crashes[0].Count != 5 || crashes[0].Reports != 1 {
		t.Fatalf("retry inflated the crash table: %+v", crashes)
	}
	// A genuinely grown cumulative count folds in the difference.
	req.Crashes[0].Count = 8
	sync()
	if got := hub.Crashes()[0]; got.Count != 8 || got.Reports != 2 {
		t.Fatalf("grown count not differenced: %+v", got)
	}
}

// postJSON is a minimal raw client for protocol-level tests of the
// JSON control endpoints (rawSync is its /v1/sync counterpart).
func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestSyncServiceAggregates checks the per-worker sync cost accounting
// that capacity planning consumes: exchange count, service time under a
// deterministic stepping clock, and payload byte totals.
func TestSyncServiceAggregates(t *testing.T) {
	tgt := targetFor(t, "dm")
	var tick int64
	clock := func() time.Time {
		tick++
		return time.Unix(0, tick*int64(time.Millisecond))
	}
	hub, srv := newHub(t, tgt, WithClock(clock))
	ctx := context.Background()
	c, err := Dial(ctx, srv.URL, "w", tgt)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.NewGen(tgt, 41)
	cover := vkernel.NewCoverSet(16)
	cover.Add(2)
	for i := 0; i < 2; i++ {
		st := fuzz.SyncState{
			Seeds: []seedpool.SeedState{stateOf(g.Generate(3), i+1)},
			Cover: cover, Execs: 100 * (i + 1),
		}
		if _, err := c.Sync(ctx, st); err != nil {
			t.Fatal(err)
		}
	}
	st := hub.Stats()
	if len(st.Workers) != 1 {
		t.Fatalf("want 1 worker, got %+v", st.Workers)
	}
	agg := st.Workers[0].Sync
	if agg.Count != 2 {
		t.Fatalf("want 2 recorded syncs, got %d", agg.Count)
	}
	// The stepping clock advances 1ms per reading, so every exchange
	// observes a positive, millisecond-quantized service time.
	if agg.ServiceNsSum < 2*int64(time.Millisecond) {
		t.Fatalf("service time not measured: %+v", agg)
	}
	if agg.ServiceNsMax <= 0 || agg.ServiceNsMax > agg.ServiceNsSum {
		t.Fatalf("service max inconsistent: %+v", agg)
	}
	if agg.BytesSum <= 0 || agg.BytesMax <= 0 || agg.BytesMax > agg.BytesSum {
		t.Fatalf("payload bytes not accounted: %+v", agg)
	}
	if agg.MeanServiceNs() <= 0 {
		t.Fatalf("mean service time %v", agg.MeanServiceNs())
	}
	// The hub-wide aggregate mirrors the single worker's.
	if st.Sync != agg {
		t.Fatalf("hub-wide sync agg %+v != worker agg %+v", st.Sync, agg)
	}
}
