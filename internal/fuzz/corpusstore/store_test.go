package corpusstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
)

var testCorpus = corpus.Build(corpus.TestConfig())

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

// genSeeds builds n distinct valid programs with synthetic weights.
func genSeeds(t testing.TB, tgt *prog.Target, n int) []seedpool.SeedState {
	t.Helper()
	g := prog.NewGen(tgt, 7)
	seen := map[string]bool{}
	var out []seedpool.SeedState
	for len(out) < n {
		p := g.Generate(4)
		text := p.Serialize()
		if seen[text] {
			continue
		}
		seen[text] = true
		out = append(out, seedpool.SeedState{
			Prog:  p.Detach(),
			Text:  text,
			Prio:  len(out) + 1,
			Bonus: len(out) % 3,
			Op:    []string{"", "splice", "insert"}[len(out)%3],
		})
	}
	return out
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	tgt := targetFor(t, "dm")
	seeds := genSeeds(t, tgt, 6)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seeds, 123); err != nil {
		t.Fatal(err)
	}
	got, rep, err := st.Load(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 0 || rep.Loaded != 6 || rep.CoverBlocks != 123 {
		t.Fatalf("report wrong: %+v", rep)
	}
	if len(got) != len(seeds) {
		t.Fatalf("loaded %d of %d", len(got), len(seeds))
	}
	byText := map[string]seedpool.SeedState{}
	for _, s := range seeds {
		byText[s.Prog.Serialize()] = s
	}
	for _, s := range got {
		want, ok := byText[s.Prog.Serialize()]
		if !ok {
			t.Fatalf("loaded unknown program:\n%s", s.Prog.Serialize())
		}
		if s.Prio != want.Prio || s.Bonus != want.Bonus || s.Op != want.Op {
			t.Fatalf("state not preserved: %+v vs %+v", s, want)
		}
	}
}

func TestStoreEmptyDirIsEmptyStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := st.Load(targetFor(t, "dm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || rep.Loaded != 0 || len(rep.Skipped) != 0 {
		t.Fatalf("empty store loaded something: %+v", rep)
	}
}

// TestStoreLoadTolerance is the acceptance property: corrupted and
// stale entries are skipped with a report, never fatal, and the
// healthy remainder loads.
func TestStoreLoadTolerance(t *testing.T) {
	tgt := targetFor(t, "dm")
	seeds := genSeeds(t, tgt, 5)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seeds, 50); err != nil {
		t.Fatal(err)
	}

	// Corrupt one entry's file in place (content no longer matches
	// its address).
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, m.Seeds[1].File), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Delete another entry's file outright.
	if err := os.Remove(filepath.Join(dir, m.Seeds[2].File)); err != nil {
		t.Fatal(err)
	}
	// Make a third entry stale: rewrite it (with a consistent content
	// address) to reference a syscall the target does not have.
	stale := "frob$nosuchcall(0x0)\n"
	staleName := FileFor(stale)
	if err := os.WriteFile(filepath.Join(dir, staleName), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	m.Seeds[3].File = staleName
	data, _ := json.MarshalIndent(m, "", "  ")
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, rep, err := st.Load(tgt)
	if err != nil {
		t.Fatalf("tolerant load must not fail: %v", err)
	}
	if len(got) != 2 || rep.Loaded != 2 {
		t.Fatalf("want 2 healthy seeds, got %d (%+v)", len(got), rep)
	}
	if len(rep.Skipped) != 3 {
		t.Fatalf("want 3 skips, got %+v", rep.Skipped)
	}
	reasons := strings.Join([]string{rep.Skipped[0].Reason, rep.Skipped[1].Reason, rep.Skipped[2].Reason}, "|")
	for _, want := range []string{"corrupted", "unreadable", "stale"} {
		if !strings.Contains(reasons, want) {
			t.Fatalf("skip reasons missing %q: %s", want, reasons)
		}
	}
	if !strings.Contains(rep.String(), "skipped") {
		t.Fatalf("report text missing skips: %s", rep.String())
	}
}

func TestStoreLoadRejectsTraversalFileNames(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Version: Version, Seeds: []Entry{{File: "../evil.prog", Prio: 1}}}
	data, _ := json.Marshal(m)
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep, err := st.Load(targetFor(t, "dm"))
	if err != nil || len(got) != 0 || len(rep.Skipped) != 1 {
		t.Fatalf("traversal entry not skipped: %v %+v", err, rep)
	}
}

func TestStoreCorruptManifestIsError(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(targetFor(t, "dm")); err == nil {
		t.Fatal("corrupt manifest must be an error")
	}
}

func TestStoreSaveGarbageCollectsOrphans(t *testing.T) {
	tgt := targetFor(t, "dm")
	seeds := genSeeds(t, tgt, 4)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seeds, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seeds[:2], 0); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	progFiles := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), progExt) {
			progFiles++
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if progFiles != 2 {
		t.Fatalf("orphans not collected: %d prog files", progFiles)
	}
}

func TestMergeDeduplicatesAndBounds(t *testing.T) {
	tgt := targetFor(t, "dm")
	seeds := genSeeds(t, tgt, 5)
	// A duplicate of seeds[0] with a higher weight must win.
	dup := seedpool.SeedState{Prog: seeds[0].Prog, Text: seeds[0].Text, Prio: 40}
	merged := Merge(4, seeds, []seedpool.SeedState{dup})
	if len(merged) != 4 {
		t.Fatalf("capacity not enforced: %d", len(merged))
	}
	if merged[0].Prio != 40 {
		t.Fatalf("higher-weight duplicate lost: %+v", merged[0])
	}
	texts := map[string]bool{}
	for _, s := range merged {
		text := s.Prog.Serialize()
		if texts[text] {
			t.Fatal("merge kept duplicate program")
		}
		texts[text] = true
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Weight() > merged[i-1].Weight() {
			t.Fatalf("merge not weight-ordered: %+v", merged)
		}
	}
}

// TestTextOnlyStatesMergeAndSave: a state that carries its Text and no
// Prog (the hub's corpus) merges with program states by that text and
// is saved under it, and the store loads it back as that program. A
// state with neither is dropped.
func TestTextOnlyStatesMergeAndSave(t *testing.T) {
	tgt := targetFor(t, "dm")
	seeds := genSeeds(t, tgt, 4)
	var textOnly []seedpool.SeedState
	for _, s := range seeds[:3] {
		textOnly = append(textOnly, seedpool.SeedState{Text: s.Prog.Serialize(), Prio: s.Prio + 10, Op: s.Op})
	}
	textOnly = append(textOnly, seedpool.SeedState{Prio: 99})
	merged := Merge(0, seeds, textOnly)
	if len(merged) != len(seeds) {
		t.Fatalf("merged %d states, want %d distinct programs", len(merged), len(seeds))
	}
	for _, s := range merged[:3] {
		if s.Prog != nil || s.Prio <= 10 {
			t.Fatalf("the heavier text-only copy lost: %+v", s)
		}
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(merged, 0); err != nil {
		t.Fatal(err)
	}
	got, rep, err := st.Load(tgt)
	if err != nil || len(rep.Skipped) != 0 || len(got) != len(merged) {
		t.Fatalf("loaded %d of %d, report %+v, err %v", len(got), len(merged), rep, err)
	}
	for i, s := range got {
		if s.Text != merged[i].Text || s.Prog.Serialize() != s.Text || s.Prio != merged[i].Prio {
			t.Fatalf("entry %d loads as %+v, saved as %+v", i, s, merged[i])
		}
	}
}

// TestMergeOrderIndependentOnDisjointSets is the determinism
// property the sharded flush relies on: for sets merged in a fixed
// order the output is reproducible, and disjoint sets commute.
func TestMergeOrderIndependentOnDisjointSets(t *testing.T) {
	tgt := targetFor(t, "dm")
	seeds := genSeeds(t, tgt, 6)
	a, b := seeds[:3], seeds[3:]
	ab := Merge(10, a, b)
	ba := Merge(10, b, a)
	if len(ab) != len(ba) {
		t.Fatalf("disjoint merge diverged: %d vs %d", len(ab), len(ba))
	}
	for i := range ab {
		if ab[i] != ba[i] {
			t.Fatalf("disjoint merge diverged at %d: %+v vs %+v", i, ab[i], ba[i])
		}
	}
}

func TestSaveAdvancesGenerationAndStampsNewEntries(t *testing.T) {
	tgt := targetFor(t, "dm")
	seeds := genSeeds(t, tgt, 5)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seeds[:3], 10); err != nil {
		t.Fatal(err)
	}
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation != 1 {
		t.Fatalf("first save generation = %d, want 1", m.Generation)
	}
	for _, e := range m.Seeds {
		if e.Gen != 1 {
			t.Fatalf("first-save entry stamped gen %d: %+v", e.Gen, e)
		}
	}
	// Second save: carried-forward entries keep gen 1, new ones get 2.
	if err := st.Save(seeds, 20); err != nil {
		t.Fatal(err)
	}
	m, err = st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation != 2 {
		t.Fatalf("second save generation = %d, want 2", m.Generation)
	}
	gens := map[int]int{}
	for _, e := range m.Seeds {
		gens[e.Gen]++
	}
	if gens[1] != 3 || gens[2] != 2 {
		t.Fatalf("gen distribution %v, want 3 at gen 1 and 2 at gen 2", gens)
	}
}

func TestDiffShipsOnlyNewEntries(t *testing.T) {
	tgt := targetFor(t, "dm")
	seeds := genSeeds(t, tgt, 6)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seeds[:4], 10); err != nil {
		t.Fatal(err)
	}
	all, gen, rep, err := st.Diff(tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 || gen != 1 || len(rep.Skipped) != 0 {
		t.Fatalf("full diff: %d seeds at gen %d (%+v)", len(all), gen, rep)
	}
	// Nothing new since the current generation.
	none, gen2, _, err := st.Diff(tgt, gen)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 || gen2 != gen {
		t.Fatalf("empty diff returned %d seeds at gen %d", len(none), gen2)
	}
	if err := st.Save(seeds, 20); err != nil {
		t.Fatal(err)
	}
	fresh, gen3, _, err := st.Diff(tgt, gen)
	if err != nil {
		t.Fatal(err)
	}
	if gen3 != gen+1 || len(fresh) != 2 {
		t.Fatalf("incremental diff: %d seeds at gen %d, want 2 at gen %d", len(fresh), gen3, gen+1)
	}
	want := map[string]bool{
		seeds[4].Prog.Serialize(): true,
		seeds[5].Prog.Serialize(): true,
	}
	for _, s := range fresh {
		if !want[s.Prog.Serialize()] {
			t.Fatalf("diff shipped an old entry: %q", s.Prog.Serialize())
		}
	}
}

func TestDiffOnEmptyStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seeds, gen, rep, err := st.Diff(targetFor(t, "dm"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 0 || gen != 0 || rep.Loaded != 0 {
		t.Fatalf("empty store diff: %d seeds gen %d %+v", len(seeds), gen, rep)
	}
}
