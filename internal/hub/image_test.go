package hub

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
)

// checkTexts fails unless every state carries exactly its program's
// rendering; a text-only state (no Prog) must carry canonical text.
func checkTexts(t *testing.T, where string, tgt *prog.Target, states []seedpool.SeedState) {
	t.Helper()
	if len(states) == 0 {
		t.Fatalf("%s: no states, the check is vacuous", where)
	}
	for i, st := range states {
		var want string
		var err error
		if st.Prog != nil {
			want = st.Prog.Serialize()
		} else {
			want, err = prog.Canonical(tgt, st.Text)
		}
		if st.Text == "" || err != nil || st.Text != want {
			t.Fatalf("%s: state %d carries Text %q, its program renders %q (%v)", where, i, st.Text, want, err)
		}
	}
}

// checkHubTexts holds the hub's corpus to checkTexts and to being text
// only, the form the hub keeps it in.
func checkHubTexts(t *testing.T, where string, h *Hub) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	checkTexts(t, where, h.target, h.states)
	for i, st := range h.states {
		if st.Prog != nil {
			t.Fatalf("%s: hub state %d holds a program tree", where, i)
		}
	}
}

// TestSeedTextIsSerialize: Text == Prog.Serialize() for every state
// that leaves a pool, a store or the client's pull decode, and
// Text == prog.Canonical(Text) for the hub's text-only corpus, whether
// pushed, loaded by New or imported from a parent — including when
// what was parsed was some other rendering of the program.
func TestSeedTextIsSerialize(t *testing.T) {
	tgt := targetFor(t, "dm", "cec")
	g := prog.NewGen(tgt, 3)
	ctx := context.Background()

	// A pool through admissions, evictions, rewards and a Reconcile of
	// states with and without a text of their own.
	pool := seedpool.New(8)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		pool.Add(g.Generate(2+i%3), 1+(i*5)%11, "insert")
		if _, ref := pool.PickRef(r); i%3 == 0 {
			pool.Reward(ref, i%4)
		}
	}
	checkTexts(t, "Export", tgt, pool.Export())
	foreign := g.Generate(3).Detach()
	pool.Reconcile([]seedpool.SeedState{
		stateOf(foreign, 50), stateOf(g.Generate(4).Detach(), 60), stateOf(pool.Export()[0].Prog, 70),
	})
	exported := pool.Export()
	checkTexts(t, "Export after Reconcile", tgt, exported)

	// A store holding, beside what Save wrote, a file in a rendering
	// Save would never write.
	dir := t.TempDir()
	store, err := corpusstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(exported, 0); err != nil {
		t.Fatal(err)
	}
	byHand := sloppy(t, tgt, g.Generate(3).Serialize())
	if err := os.WriteFile(filepath.Join(dir, corpusstore.FileFor(byHand)), []byte(byHand), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	manifest = bytes.Replace(manifest, []byte(`"seeds": [`), []byte(`"seeds": [{"file":"`+corpusstore.FileFor(byHand)+`","prio":9,"gen":1},`), 1)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, rep, err := store.Load(tgt)
	if err != nil || len(rep.Skipped) != 0 || len(loaded) != len(exported)+1 {
		t.Fatalf("load: %d seeds, report %+v, err %v", len(loaded), rep, err)
	}
	checkTexts(t, "Load", tgt, loaded)
	if e := store.Image().Seeds[0]; e.Text != "" {
		t.Fatalf("image vouches for %s, which does not hold the text a Save would write", e.File)
	}
	diffed, _, _, err := store.Diff(tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkTexts(t, "Diff", tgt, diffed)

	// The hub's push decode, fed canonical and hand-written text; the
	// client's pull decode of what the hub then serves.
	h, srv := newHub(t, tgt)
	var reg RegisterResponse
	postJSON(t, srv.URL+"/v1/register", RegisterRequest{Version: ProtoVersion, Name: "w", Fingerprint: "fp"}, &reg)
	push := SyncRequest{WorkerID: reg.WorkerID, LeaseID: reg.LeaseID}
	for i, st := range exported {
		text := st.Text
		if i%2 == 0 {
			text = sloppy(t, tgt, text)
		}
		push.Seeds = append(push.Seeds, seedpool.SeedState{Text: text, Prio: st.Prio, Bonus: st.Bonus, Op: st.Op})
	}
	if code, _ := rawSync(t, srv.URL, push); code != http.StatusOK {
		t.Fatalf("push answered %d", code)
	}
	checkHubTexts(t, "hub push decode", h)
	if n := h.Stats().Seeds; n != len(exported) {
		t.Fatalf("hub holds %d seeds, %d distinct programs were pushed", n, len(exported))
	}
	reopened, err := corpusstore.Open(h.store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := New(tgt, reopened, WithStatePath(filepath.Join(t.TempDir(), stateFile)))
	if err != nil {
		t.Fatal(err)
	}
	checkHubTexts(t, "hub load", restarted)
	leaf, _ := newHub(t, tgt)
	pc, err := Dial(ctx, srv.URL, "leaf", tgt)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := leaf.SyncParent(ctx, pc, false); err != nil || n != len(exported) {
		t.Fatalf("leaf imported %d of %d seeds, err %v", n, len(exported), err)
	}
	checkHubTexts(t, "hub parent import", leaf)
	c, err := Dial(ctx, srv.URL, "puller", tgt)
	if err != nil {
		t.Fatal(err)
	}
	pulled, err := c.Sync(ctx, fuzz.SyncState{})
	if err != nil {
		t.Fatal(err)
	}
	checkTexts(t, "client pull decode", tgt, pulled)
	if len(pulled) != len(exported) {
		t.Fatalf("pulled %d of %d seeds", len(pulled), len(exported))
	}
}

// TestRepeatSyncRendersNothing: once a pool's seeds have been exported
// and pushed, exporting and syncing the unchanged pool again costs the
// same handful of allocations whether it holds 16 seeds or 512 — no
// program is rendered and no text is hashed a second time.
func TestRepeatSyncRendersNothing(t *testing.T) {
	tgt := targetFor(t, "dm")
	ctx := context.Background()
	measure := func(n int) (export, sync float64) {
		_, srv := newHub(t, tgt, WithCapacity(n))
		c, err := Dial(ctx, srv.URL, "w", tgt)
		if err != nil {
			t.Fatal(err)
		}
		pool := fullPool(tgt, n)
		round := func() {
			if _, err := c.Sync(ctx, fuzz.SyncState{Seeds: pool.Export(), Cover: coverOf(1, 2, 3), Execs: 10}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i <= n/MaxPushBatch; i++ {
			round() // push everything, pull it back
		}
		if pulled, err := c.Sync(ctx, fuzz.SyncState{Seeds: pool.Export(), Cover: coverOf(1, 2, 3)}); err != nil || len(pulled) != 0 {
			t.Fatalf("pool of %d not settled: pulled %d, err %v", n, len(pulled), err)
		}
		export = testing.AllocsPerRun(20, func() { pool.Export() })
		sync = testing.AllocsPerRun(20, round) - export
		return export, sync
	}
	smallExport, smallSync := measure(16)
	bigExport, bigSync := measure(seedpool.DefaultCapacity)
	t.Logf("allocations per repeat: Export %.0f at 16 seeds, %.0f at 512; Client.Sync %.0f at 16 seeds, %.0f at 512", smallExport, bigExport, smallSync, bigSync)
	if bigExport > smallExport+2 {
		t.Errorf("a repeat Export allocates %.0f times at 512 seeds, %.0f at 16", bigExport, smallExport)
	}
	// The exchange is real HTTP in one process: both ends' allocations
	// are counted, and they vary by a few from run to run.
	if bigSync > smallSync+40 {
		t.Errorf("a repeat Sync allocates %.0f times at 512 seeds, %.0f at 16", bigSync, smallSync)
	}
}

// TestHubMergeWritesOnlyNewFiles: admitting one seed into a full
// default-capacity hub replaces the manifest and that seed's file,
// nothing else.
func TestHubMergeWritesOnlyNewFiles(t *testing.T) {
	tgt := targetFor(t, "dm")
	h, dir, reg := fullHub(t, tgt)
	handler := h.Handler()
	before := storeFiles(t, dir)
	one := SyncRequest{
		WorkerID: reg.WorkerID, LeaseID: reg.LeaseID, SinceGen: 1,
		Seeds: []seedpool.SeedState{{Text: prog.NewGen(tgt, 99).Generate(4).Serialize(), Prio: 10_000}},
	}
	serve(t, handler, "/v1/sync", BinaryContentType, EncodeSyncRequest(&one), nil)
	after := storeFiles(t, dir)
	var replaced []string
	for name, fi := range after {
		if old, ok := before[name]; !ok || !os.SameFile(old, fi) {
			replaced = append(replaced, name)
		}
	}
	if len(replaced) != 2 || len(after) != len(before) {
		t.Fatalf("a one-seed merge into a full hub replaced %d of %d files (%d before): %v", len(replaced), len(after), len(before), replaced)
	}
}
