package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestQuickTablesGolden pins every quick-scale table and figure byte for
// byte: the paper's results as this reproduction computes them. Each
// table renders as `benchtables -quick` prints it. Re-recording it
// (-update) changes the reproduced paper and needs the review a
// fingerprint bump does.
func TestQuickTablesGolden(t *testing.T) {
	var b strings.Builder
	if err := quickRunner.All(nil, func(tb *Table) {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	path := filepath.Join("testdata", "tables_quick.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				g := "<missing>"
				if i < len(gl) {
					g = gl[i]
				}
				t.Fatalf("tables diverged from %s at line %d:\n got %s\nwant %s", path, i+1, g, wl[i])
			}
		}
		t.Fatalf("tables have %d lines, %s has %d", len(gl), path, len(wl))
	}
}
