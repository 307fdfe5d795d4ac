package analysis

import (
	"fmt"
	"go/token"
	"io"
	"sort"
)

// RunPackage applies one analyzer to one loaded package and returns
// its diagnostics sorted by position. It reports on every file the
// package holds; Load keeps test files out of scope by never loading
// them.
func RunPackage(pkg *Package, a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
	}
	pass.Report = func(d Diagnostic) {
		d.Analyzer = a.Name
		diags = append(diags, d)
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

// Run applies every analyzer to every package and returns the
// combined findings, sorted by file position then analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			diags, err := RunPackage(pkg, a)
			if err != nil {
				return nil, err
			}
			all = append(all, diags...)
		}
	}
	if len(pkgs) > 0 {
		sortDiagnostics(pkgs[0].Fset, all)
	}
	return all, nil
}

// sortDiagnostics orders findings by filename, offset, then analyzer
// so output is stable regardless of analyzer or package order.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Offset != pj.Offset {
			return pi.Offset < pj.Offset
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// Print writes findings in the conventional file:line:col form.
func Print(w io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(w, "%s: %s: %s\n", formatPos(pos), d.Analyzer, d.Message)
	}
}

func formatPos(pos token.Position) string {
	if pos.Filename == "" {
		return "-"
	}
	return fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)
}
