package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"kernelgpt/internal/analysis"
	"kernelgpt/internal/analysis/analysistest"
	"kernelgpt/internal/analysis/ctxhygiene"
	"kernelgpt/internal/analysis/detorder"
	"kernelgpt/internal/analysis/detrand"
	"kernelgpt/internal/analysis/lockguard"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// TestSyzlintCleanOnRepo is the CI gate's in-process twin: the full
// analyzer suite over every package must report nothing. If this
// fails, either fix the code or record the judgment with the
// documented annotation (//syzlint:..., // guarded by mu).
func TestSyzlintCleanOnRepo(t *testing.T) {
	root := repoRoot(t)
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, All)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) > 0 {
		var buf bytes.Buffer
		analysis.Print(&buf, pkgs[0].Fset, diags)
		t.Fatalf("syzlint must run clean on the repo; findings:\n%s", buf.String())
	}
}

// TestAnalyzersFireOnBrokenFixtures proves the clean run above is not
// vacuous: every analyzer still reports on its deliberately broken
// fixture.
func TestAnalyzersFireOnBrokenFixtures(t *testing.T) {
	root := repoRoot(t)
	cases := []struct {
		a          *analysis.Analyzer
		fixture    string
		importPath string
	}{
		{ctxhygiene.Analyzer, "ctxhygiene/testdata/src/ctxhygiene", "kernelgpt/internal/fixture"},
		{detorder.Analyzer, "detorder/testdata/src/detorder", "kernelgpt/internal/fixture"},
		{detrand.Analyzer, "detrand/testdata/src/detrand", "kernelgpt/internal/fuzz"},
		{lockguard.Analyzer, "lockguard/testdata/src/lockguard", "kernelgpt/internal/fixture"},
	}
	for _, tc := range cases {
		t.Run(tc.a.Name, func(t *testing.T) {
			dir := filepath.Join(root, "internal", "analysis", tc.fixture)
			analysistest.MustFire(t, dir, tc.importPath, tc.a)
		})
	}
}

// TestRunExitContract drives the command in-process: 0 on a clean
// package, 1 when an analyzer fires (a broken fixture, named by its
// directory), 2 when the pattern does not load.
func TestRunExitContract(t *testing.T) {
	t.Chdir(repoRoot(t))
	for _, tc := range []struct {
		pattern string
		want    int
	}{
		{"./internal/hub", 0},
		{"./internal/analysis/lockguard/testdata/src/lockguard", 1},
		{"./internal/no-such-package", 2},
	} {
		var out, errOut bytes.Buffer
		if got := run([]string{tc.pattern}, &out, &errOut); got != tc.want {
			t.Errorf("syzlint %s exited %d, want %d\nstdout:\n%sstderr:\n%s", tc.pattern, got, tc.want, out.String(), errOut.String())
		}
	}
}
