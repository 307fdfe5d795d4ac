package corpusstore

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"kernelgpt/internal/fuzz/seedpool"
)

// dirFiles stats every file of a store directory.
func dirFiles(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]os.FileInfo{}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi
	}
	return out
}

// replaced lists, sorted, the files of after that are new or are not the
// file before held under that name. Every write lands by temp+rename, so
// a rewritten file is a new inode even when its bytes are the same.
func replaced(before, after map[string]os.FileInfo) []string {
	var out []string
	for name, fi := range after {
		if old, ok := before[name]; !ok || !os.SameFile(old, fi) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func openStore(t testing.TB, dir string) *Store {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSaveWritesOnlyNewFiles: a Save costs the manifest plus the
// programs that are new to the handle. Unchanged entries keep their
// inodes, an unchanged corpus replaces exactly manifest.json, and
// admitting one seed into a full default-capacity corpus — what a hub
// merge does — replaces the manifest and that seed's file.
func TestSaveWritesOnlyNewFiles(t *testing.T) {
	tgt := targetFor(t, "dm")
	seeds := genSeeds(t, tgt, seedpool.DefaultCapacity+1)
	full, extra := seeds[1:], seeds[:1] // extra has the lowest weight
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Save(full, 0); err != nil {
		t.Fatal(err)
	}
	fresh := dirFiles(t, dir)
	if len(fresh) != seedpool.DefaultCapacity+1 {
		t.Fatalf("fresh save left %d files, want %d programs and the manifest", len(fresh), seedpool.DefaultCapacity)
	}

	if err := st.Save(full, 0); err != nil {
		t.Fatal(err)
	}
	unchanged := dirFiles(t, dir)
	if got := replaced(fresh, unchanged); len(got) != 1 || got[0] != manifestName {
		t.Fatalf("saving an unchanged corpus replaced %d files (%v), want exactly %s", len(got), got, manifestName)
	}

	// One new seed that outranks everything, merged into the full corpus
	// the way Hub.mergeLocked does it: the lightest entry is evicted.
	extra[0].Prio = 10_000
	merged := Merge(0, full, extra)
	if err := st.Save(merged, 0); err != nil {
		t.Fatal(err)
	}
	after := dirFiles(t, dir)
	want := []string{FileFor(extra[0].Text), manifestName}
	sort.Strings(want)
	if got := replaced(unchanged, after); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("admitting one seed into a full corpus replaced %v, want %v", got, want)
	}
	if len(after) != len(unchanged) {
		t.Fatalf("one in, one out: %d files, want %d", len(after), len(unchanged))
	}
	if got, _, err := st.Load(tgt); err != nil || len(got) != seedpool.DefaultCapacity {
		t.Fatalf("store no longer loads whole: %d seeds, err %v", len(got), err)
	}
}

// TestSaveRewritesWhatItHasNotVerified: the image vouches only for files
// this handle has checked or written. A fresh handle over an existing
// directory writes every file (and continues its generation lineage); a
// file corrupted before Load is skipped, reported, and rewritten by the
// next Save that still holds the program; a failed Save leaves the image
// as it was.
func TestSaveRewritesWhatItHasNotVerified(t *testing.T) {
	tgt := targetFor(t, "dm")
	seeds := genSeeds(t, tgt, 7)
	held, late := seeds[:6], seeds[6]
	dir := t.TempDir()
	if err := openStore(t, dir).Save(held, 0); err != nil {
		t.Fatal(err)
	}
	first := dirFiles(t, dir)

	cold := openStore(t, dir)
	if err := cold.Save(held, 0); err != nil {
		t.Fatal(err)
	}
	second := dirFiles(t, dir)
	if got := replaced(first, second); len(got) != len(first) {
		t.Fatalf("a handle that has neither loaded nor saved replaced %d of %d files: %v", len(got), len(first), got)
	}
	if m := cold.Image(); m.Generation != 2 || m.Seeds[0].Gen != 1 {
		t.Fatalf("cold save broke the generation lineage: generation %d, first entry admitted at %d", m.Generation, m.Seeds[0].Gen)
	}

	// Rot while no handle vouches for the file.
	victim := FileFor(held[2].Text)
	if err := os.WriteFile(filepath.Join(dir, victim), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	second = dirFiles(t, dir)
	st := openStore(t, dir)
	got, rep, err := st.Load(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(held)-1 || len(rep.Skipped) != 1 || rep.Skipped[0].File != victim {
		t.Fatalf("load over a corrupted file: %d seeds, skipped %+v", len(got), rep.Skipped)
	}
	for _, e := range st.Image().Seeds {
		if (e.Text == "") != (e.File == victim) {
			t.Fatalf("image vouches for the wrong files: %s has text=%v", e.File, e.Text != "")
		}
	}
	if err := st.Save(held, 0); err != nil {
		t.Fatal(err)
	}
	third := dirFiles(t, dir)
	want := []string{victim, manifestName}
	sort.Strings(want)
	if got := replaced(second, third); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("save after a skipped entry replaced %v, want %v", got, want)
	}
	if data, err := os.ReadFile(filepath.Join(dir, victim)); err != nil || string(data) != held[2].Text {
		t.Fatalf("corrupted file not rewritten: %q, err %v", data, err)
	}

	// A Save that fails before its manifest lands changes nothing the
	// handle believes: a directory squats on the new program's temp name.
	before := st.Image()
	squat := filepath.Join(dir, FileFor(late.Text)+".tmp")
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(append(held[:6:6], late), 0); err == nil {
		t.Fatal("save over an unwritable program file reported success")
	}
	if st.Image() != before {
		t.Fatal("failed save replaced the image")
	}
	if got := replaced(third, dirFiles(t, dir)); len(got) != 1 || got[0] != filepath.Base(squat) {
		t.Fatalf("failed save replaced %v", got)
	}
	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(append(held[:6:6], late), 0); err != nil {
		t.Fatal(err)
	}
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation != before.Generation+1 || len(m.Seeds) != 7 || m.Seeds[6].Gen != m.Generation {
		t.Fatalf("retry after the failed save: generation %d after %d, %d seeds, new entry admitted at %d",
			m.Generation, before.Generation, len(m.Seeds), m.Seeds[len(m.Seeds)-1].Gen)
	}
}

// FuzzStoreLoad feeds Load arbitrary manifest bytes over a small real
// directory. Whatever the manifest says, Load must not panic, must load
// nothing from outside the directory and write nothing there, and what
// it did load must survive a Save that trusts the image that Load left
// (it skips every file the image vouches for): reloading, through the
// same handle and through a fresh one, must return what was saved.
func FuzzStoreLoad(f *testing.F) {
	tgt := targetFor(f, "dm")
	seeds := genSeeds(f, tgt, 5)
	stored, outside := seeds[:4], seeds[4]
	model := f.TempDir()
	if err := openStore(f, model).Save(stored, 7); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(model, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	name := FileFor(stored[0].Text)
	f.Add(good)
	f.Add([]byte(strings.ReplaceAll(string(good), name, "../outside.prog")))
	f.Add([]byte(strings.ReplaceAll(string(good), `"gen": 1`, `"gen": 0`)))
	f.Add([]byte(`{"version":1,"seeds":[{"file":"` + name + `","prio":3},{"file":"` + name + `","prio":9,"bonus":-2,"op":"x"}]}`))
	f.Add([]byte(`{"version":1,"generation":-3,"seeds":null}`))
	f.Fuzz(func(t *testing.T, manifest []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "store")
		if err := openStore(t, dir).Save(stored, 7); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "outside.prog"), []byte(outside.Text), 0o644); err != nil {
			t.Fatal(err)
		}
		st := openStore(t, dir)
		loaded, rep, err := st.Load(tgt)
		if err != nil {
			return // no index, nothing to tolerate entry by entry
		}
		var want []seedpool.SeedState
		seen := map[string]bool{}
		for _, s := range loaded {
			if s.Text != s.Prog.Serialize() || s.Text == outside.Text || s.Prio <= 0 {
				t.Fatalf("load produced %+v", s)
			}
			if !seen[s.Text] { // Save keeps a program's first entry
				seen[s.Text] = true
				want = append(want, s)
			}
		}
		if err := st.Save(loaded, rep.CoverBlocks); err != nil {
			t.Fatal(err)
		}
		same, _, err := st.Load(tgt)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _, err := openStore(t, dir).Load(tgt)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range [][]seedpool.SeedState{same, fresh} {
			if len(got) != len(want) {
				t.Fatalf("reloaded %d seeds, saved %d", len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Text != w.Text || g.Prio != w.Prio || g.Bonus != w.Bonus || g.Op != w.Op {
					t.Fatalf("seed %d reloaded as %+v, saved as %+v", i, g, w)
				}
			}
		}
		around, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		if data, err := os.ReadFile(filepath.Join(root, "outside.prog")); len(around) != 2 || err != nil || string(data) != outside.Text {
			t.Fatalf("the store's surroundings changed: %d entries, outside.prog %q, err %v", len(around), data, err)
		}
	})
}
