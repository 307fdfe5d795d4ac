package main

import (
	"os"
	"path/filepath"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
)

// TestAddKeepsEveryStoredSeed: -add on a store holding more seeds than
// the default pool capacity (what a lossless -merge leaves) must keep
// every one of them and add the repro.
func TestAddKeepsEveryStoredSeed(t *testing.T) {
	c := corpus.Build(corpus.TestConfig())
	spec, err := c.WidestSuite()
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := prog.Compile(spec, c.Env())
	if err != nil {
		t.Fatal(err)
	}
	g := prog.NewGen(tgt, 1)
	stored := map[string]bool{}
	var seeds []seedpool.SeedState
	for len(seeds) < seedpool.DefaultCapacity+64 {
		p := g.Generate(3).Detach()
		text := p.Serialize()
		if stored[text] {
			continue
		}
		stored[text] = true
		seeds = append(seeds, seedpool.SeedState{Prog: p, Text: text, Prio: 1})
	}
	st, err := corpusstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seeds, 0); err != nil {
		t.Fatal(err)
	}
	repro := g.Generate(2).Serialize()
	for stored[repro] {
		repro = g.Generate(2).Serialize()
	}
	path := filepath.Join(t.TempDir(), "repro.txt")
	if err := os.WriteFile(path, []byte(repro), 0o644); err != nil {
		t.Fatal(err)
	}

	addToStore(c, st, tgt, path)

	got, rep, err := st.Load(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) > 0 {
		t.Fatalf("store has invalid entries after -add: %s", rep)
	}
	have := map[string]bool{}
	for _, s := range got {
		have[s.Text] = true
	}
	for text := range stored {
		if !have[text] {
			t.Fatalf("-add dropped a stored seed (store now %d seeds, had %d):\n%s", len(got), len(seeds), text)
		}
	}
	if !have[repro] || len(got) != len(seeds)+1 {
		t.Fatalf("store has %d seeds (repro kept: %v), want %d", len(got), have[repro], len(seeds)+1)
	}
}
