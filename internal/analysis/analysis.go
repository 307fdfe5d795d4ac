// Package analysis is a self-contained static-analysis framework
// modeled on golang.org/x/tools/go/analysis, built only on the
// standard library so the repo's invariant checkers (cmd/syzlint)
// carry no external dependency. An Analyzer inspects one typechecked
// package through a Pass and reports Diagnostics; the loader
// (load.go) typechecks packages offline via `go list -export` and
// the toolchain's export data — Load for package patterns, LoadDir
// for one fixture directory, both through one parse-and-typecheck
// step — and the runner (run.go) fans analyzers out over loaded
// packages. The analysistest subpackage runs analyzers over testdata
// fixtures with // want expectations, and cmd/syzlint fronts
// everything as a standalone multichecker.
//
// The analyzers themselves (detorder, lockguard, detrand,
// ctxhygiene) machine-check the determinism and concurrency
// contracts the fuzzing pipeline stakes correctness on: sorted map
// iteration before serialization, `// guarded by mu` lock
// discipline, no wall-clock or global RNG in deterministic packages,
// and ctx-aware blocking APIs.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one invariant checker. Run inspects a single package
// via the Pass and reports findings through Pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (lowercase, no
	// spaces).
	Name string
	// Doc is the one-paragraph description shown by `syzlint -h`.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Pass is the interface between one Analyzer and one package, a la
// x/tools go/analysis.Pass (minus facts, which none of our checkers
// need).
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic (set by the runner).
	Report func(Diagnostic)

	directives map[*ast.File]DirectiveMap
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer is the reporting checker's name (filled by the runner).
	Analyzer string
}

// FileOf returns the *ast.File containing pos, or nil.
func (p *Pass) FileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// Suppressed reports whether a //syzlint:<kind> directive covers pos:
// either on the same source line (trailing comment), on the line
// directly above, or on the enclosing function declaration. This is
// the opt-out mechanism every checker honors.
func (p *Pass) Suppressed(kind string, pos token.Pos) bool {
	f := p.FileOf(pos)
	if f == nil {
		return false
	}
	if p.directives == nil {
		p.directives = map[*ast.File]DirectiveMap{}
	}
	dm, ok := p.directives[f]
	if !ok {
		dm = Directives(p.Fset, f)
		p.directives[f] = dm
	}
	line := p.Fset.Position(pos).Line
	if dm.Has(kind, line) || dm.Has(kind, line-1) {
		return true
	}
	// Function-level suppression: a directive on the func declaration
	// (or the line above it) covers the whole body.
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Pos() <= pos && pos <= fd.End() {
			dl := p.Fset.Position(fd.Pos()).Line
			if dm.Has(kind, dl) || dm.Has(kind, dl-1) {
				return true
			}
		}
	}
	return false
}
