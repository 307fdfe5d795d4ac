package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, typechecked package.
type Package struct {
	ImportPath string

	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
}

// goList runs `go list` in dir with the given arguments and decodes
// the JSON package stream.
func goList(dir string, args ...string) ([]listPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go list %s: %s", strings.Join(args, " "), msg)
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load typechecks the packages matched by patterns (relative to dir,
// e.g. "./..."), resolving imports through the toolchain's compiled
// export data so no network or external module is ever consulted.
// Test files are not loaded: the invariants syzlint enforces are
// production-code contracts, and tests legitimately use wall clocks,
// sleeps, and ad-hoc maps. Packages that fail to compile fail the
// load.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := goList(dir, append([]string{"-json=ImportPath,Dir,GoFiles,CgoFiles"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	if err := listExports(exports, dir, patterns...); err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return openExport(exports, path)
	})
	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 || len(t.CgoFiles) > 0 {
			continue
		}
		pkg, err := check(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// LoadDir typechecks every .go file of one directory as the package
// importPath, which the caller chooses: it is how analysistest loads a
// fixture. Imports (the standard library, for a fixture) resolve
// through export data that `go list` finds on first use.
func LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if _, ok := exports[path]; !ok {
			if err := listExports(exports, "", path); err != nil {
				return nil, err
			}
		}
		return openExport(exports, path)
	})
	return check(fset, imp, importPath, dir, names)
}

// listExports adds to exports the compiled export-data file of every
// package matched by patterns and of each of their dependencies, via
// `go list -export -deps` in dir (building them if needed).
func listExports(exports map[string]string, dir string, patterns ...string) error {
	pkgs, err := goList(dir, append([]string{"-export", "-deps", "-json=ImportPath,Export"}, patterns...)...)
	if err != nil {
		return err
	}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

func openExport(exports map[string]string, path string) (io.ReadCloser, error) {
	e, ok := exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(e)
}

// check parses the named files of dir and typechecks them as the
// package importPath against imp.
func check(fset *token.FileSet, imp types.Importer, importPath, dir string, names []string) (*Package, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	return &Package{ImportPath: importPath, Fset: fset, Files: files, Types: tpkg, TypesInfo: info}, nil
}
