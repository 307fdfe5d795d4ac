package engine

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kernelgpt/internal/core"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/syzlang"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// specgenLine is one contract line: what a full Suite pass produced
// (the merged suite's text, hashed) and what it cost.
func specgenLine(t *testing.T, c *corpus.Corpus, what, model string, seed uint64, workers int) string {
	t.Helper()
	e := New(c, WithClient(llm.NewSim(model, seed)), WithWorkers(workers))
	drivers, sockets, merged, err := e.Suite(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var valid, repaired, iterations int
	for _, r := range append(append([]*core.Result{}, drivers...), sockets...) {
		if r.Valid {
			valid++
		}
		if r.Repaired {
			repaired++
		}
		iterations += r.Iterations
	}
	u := e.Usage()
	return fmt.Sprintf("%s %s seed=%d suite=%x handlers=%d valid=%d repaired=%d iterations=%d calls=%d prompt_tokens=%d completion_tokens=%d",
		what, model, seed, sha256.Sum256([]byte(syzlang.Format(merged))), len(drivers)+len(sockets),
		valid, repaired, iterations, u.Calls, u.PromptTokens, u.CompletionTokens)
}

// TestSpecgenContract pins the generation pipeline's output: for every
// simulated model and sim seeds 1-3, on the test corpus and on the
// full-scale one, the merged suite text, the validity/repair/iteration
// sums and the token usage must be exactly what
// testdata/specgen_contract.txt records, with 1 worker and with 4. The
// file was recorded at the commit before the generation-side lexers
// were rewritten, so a refactor that drifts the paper's Table 1/2
// inputs fails here rather than passing a same-commit comparison.
// Re-recording it (-update) is a fingerprint bump and needs the same
// review as one.
func TestSpecgenContract(t *testing.T) {
	corpora := []struct {
		what string
		c    *corpus.Corpus
	}{
		{"test", testCorpus},
		{"full", fullCorpus()},
	}
	var got []string
	for _, cp := range corpora {
		for _, model := range llm.ModelNames() {
			for seed := uint64(1); seed <= 3; seed++ {
				line := specgenLine(t, cp.c, cp.what, model, seed, 1)
				if par := specgenLine(t, cp.c, cp.what, model, seed, 4); par != line {
					t.Fatalf("4 workers diverged from 1:\n got %s\nwant %s", par, line)
				}
				got = append(got, line)
			}
		}
	}
	path := filepath.Join("testdata", "specgen_contract.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "<missing>"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("diverged from the recorded contract at line %d:\n got %s\nwant %s", i+1, g, want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("produced %d lines, contract has %d", len(got), len(want))
	}
}
