// Package analysistest runs an analyzer over a fixture package and
// checks its findings against // want annotations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard
// library only.
//
// A fixture is a directory of .go files (conventionally
// testdata/src/<name>/ next to the analyzer). Lines that should
// trigger a finding carry a trailing comment of the form
//
//	x := 1 // want "regexp"
//
// with one Go-quoted regular expression per expected diagnostic on
// that line. Every reported diagnostic must be matched by a want and
// every want must be matched by a diagnostic, or the test fails.
// Fixtures may import the standard library (resolved through the
// toolchain's export data, offline); the import path the fixture is
// typechecked under is chosen by the test, so path-scoped analyzers
// (detrand, ctxhygiene) can be exercised both inside and outside
// their territory from one fixture.
package analysistest

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"kernelgpt/internal/analysis"
)

// Run typechecks the fixture directory under the given import path,
// applies the analyzer, and reports any mismatch against the // want
// annotations through t.
func Run(t *testing.T, fixtureDir, importPath string, a *analysis.Analyzer) {
	t.Helper()
	diags, fset, files, err := runAnalyzer(fixtureDir, importPath, a)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, fset, files)
	checkWants(t, fset, diags, wants)
}

// MustFire asserts the analyzer reports at least one finding on the
// fixture — the "deliberately broken fixture still trips the
// checker" guard.
func MustFire(t *testing.T, fixtureDir, importPath string, a *analysis.Analyzer) {
	t.Helper()
	diags, _, _, err := runAnalyzer(fixtureDir, importPath, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatalf("%s reported no findings on %s; expected at least one", a.Name, fixtureDir)
	}
}

func runAnalyzer(fixtureDir, importPath string, a *analysis.Analyzer) ([]analysis.Diagnostic, *token.FileSet, []*ast.File, error) {
	pkg, err := analysis.LoadDir(fixtureDir, importPath)
	if err != nil {
		return nil, nil, nil, err
	}
	diags, err := analysis.RunPackage(pkg, a)
	if err != nil {
		return nil, nil, nil, err
	}
	return diags, pkg.Fset, pkg.Files, nil
}

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// collectWants parses // want annotations from the fixture comments.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for {
					rest = strings.TrimSpace(rest)
					if rest == "" {
						break
					}
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want annotation %q", pos, c.Text)
					}
					unq, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: malformed want pattern %q", pos, q)
					}
					re, err := regexp.Compile(unq)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, unq, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: unq})
					rest = rest[len(q):]
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// checkWants matches diagnostics against expectations one-to-one.
func checkWants(t *testing.T, fset *token.FileSet, diags []analysis.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.hit || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected finding: %s: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.raw)
		}
	}
}
