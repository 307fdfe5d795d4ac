package main

import (
	"bufio"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"testing"

	"kernelgpt/internal/analysis"
)

// unreachedGolden pins the exported functions, methods and
// package-level types, constants and variables that no non-test code
// names, one per line: the symbol, then the reason it stays. A line
// starting with # is a comment.
const unreachedGolden = "testdata/unreached.txt"

// unreachedReasons are the reasons an unreached name may stay: API
// whose purpose is to serve tests, an injection seam tests need, a
// reference tests compare a faster path against, a base an open
// ROADMAP item builds on, or a caller only in benchmark/.
var unreachedReasons = []string{"test-support:", "seam:", "reference:", "roadmap:", "benchmark:"}

// benchmarkPkg is the end-to-end benchmark. Its calls do not count as
// product callers: a name only it reaches is pinned with that reason.
const benchmarkPkg = "kernelgpt/benchmark"

// funcKey names a function or method the way a profile does:
// pkgpath.Func, pkgpath.Type.Method or pkgpath.(*Type).Method. Each
// package of a load is typechecked on its own, so one function has a
// different object in its declaring package than in its importers;
// the key is what they share.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return "" // error.Error
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	recv, ptr := sig.Recv().Type(), false
	if p, ok := recv.(*types.Pointer); ok {
		recv, ptr = p.Elem(), true
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "" // an interface method
	}
	typ := named.Obj().Name()
	if ptr {
		typ = "(*" + typ + ")"
	}
	return fn.Pkg().Path() + "." + typ + "." + fn.Name()
}

// objKey names a package-level object the way funcKey names a
// function: pkgpath.Name for a type, constant or variable declared at
// package scope, "" for anything else (a field, a local, a builtin).
func objKey(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		return funcKey(obj)
	case *types.TypeName, *types.Const, *types.Var:
		if pkg := obj.Pkg(); pkg != nil && pkg.Scope().Lookup(obj.Name()) == obj {
			return pkg.Path() + "." + obj.Name()
		}
	}
	return ""
}

// methodSig renders a method as its name and the types of its
// parameters and results, qualified by package path, so that a method
// and an interface method match across loads of one package and
// whatever they name their parameters.
func methodSig(fn *types.Func) string {
	qual := func(p *types.Package) string { return p.Path() }
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// interfaceSigs collects the method sets of every non-empty interface
// the module's code can see: those it declares or spells out, and
// those declared by any package it imports (error, fmt.Stringer,
// http.Handler, ...).
func interfaceSigs(pkgs []*analysis.Package) [][]string {
	seen := map[string]bool{}
	var out [][]string
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			return
		}
		sigs := make([]string, iface.NumMethods())
		for i := range sigs {
			sigs[i] = methodSig(iface.Method(i))
		}
		sort.Strings(sigs)
		if k := strings.Join(sigs, ";"); !seen[k] {
			seen[k] = true
			out = append(out, sigs)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.TypesInfo.Types {
			add(tv.Type)
		}
		for _, obj := range pkg.TypesInfo.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return out
}

// unreachedExported loads the module's non-test code and returns the
// exported functions, methods and package-level types, constants and
// variables that nothing outside their own declaration and outside
// benchmark/ refers to, leaving out methods that implement an
// interface. A use in the declaring package counts.
func unreachedExported(t *testing.T) []string {
	t.Helper()
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	ifaces := interfaceSigs(pkgs)
	declared := map[string]bool{}
	used := map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.ImportPath == benchmarkPkg {
			continue
		}
		// scan records the uses in node of anything but self.
		scan := func(node ast.Node, self string) {
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if k := objKey(pkg.TypesInfo.Uses[id]); k != "" && k != self {
						used[k] = true
					}
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn := pkg.TypesInfo.Defs[decl.Name].(*types.Func)
					if fn.Exported() && !isImpl(fn, ifaces) {
						declared[funcKey(fn)] = true
					}
					scan(decl, funcKey(fn))
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						var names []*ast.Ident
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{spec.Name}
						case *ast.ValueSpec:
							names = spec.Names
						}
						// A spec's own name is not a use of it. Only a type
						// spec can name itself, and it declares one name.
						self := ""
						for _, name := range names {
							if obj := pkg.TypesInfo.Defs[name]; obj != nil && obj.Exported() {
								self = objKey(obj)
								declared[self] = true
							}
						}
						scan(spec, self)
					}
				}
			}
		}
	}
	var out []string
	for k := range declared {
		if !used[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// isImpl reports whether fn is a method whose receiver type (or a
// pointer to it) has every method of some interface that includes fn:
// a call through that interface reaches fn without naming it.
func isImpl(fn *types.Func, ifaces [][]string) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	have := map[string]bool{}
	mset := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < mset.Len(); i++ {
		have[methodSig(mset.At(i).Obj().(*types.Func))] = true
	}
	want := methodSig(fn)
	for _, sigs := range ifaces {
		if _, found := slices.BinarySearch(sigs, want); !found {
			continue
		}
		all := true
		for _, s := range sigs {
			all = all && have[s]
		}
		if all {
			return true
		}
	}
	return false
}

// readUnreachedGolden returns the pinned symbols with their reasons.
func readUnreachedGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(unreachedGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, why, _ := strings.Cut(line, " ")
		why = strings.TrimSpace(why)
		if !slices.ContainsFunc(unreachedReasons, func(r string) bool { return strings.HasPrefix(why, r) }) {
			t.Errorf("%s: %s must give a reason starting with one of %v, got %q", unreachedGolden, sym, unreachedReasons, why)
		}
		if _, dup := pinned[sym]; dup {
			t.Errorf("%s: %s pinned twice", unreachedGolden, sym)
		}
		pinned[sym] = why
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pinned
}

// TestExportedNamesHaveCallers is the ratchet on unreached surface:
// every exported function, method and package-level type, constant and
// variable needs a non-test use outside benchmark/, or a pinned line in
// testdata/unreached.txt saying why it stays. It fails both ways, so
// the golden cannot go stale: a new unreached name must be pinned (and
// the change say why), and a pinned name that gains a use or is
// deleted must be unpinned.
func TestExportedNamesHaveCallers(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("the loader needs the go command: %v", err)
	}
	pinned := readUnreachedGolden(t)
	unreached := unreachedExported(t)
	found := map[string]bool{}
	for _, sym := range unreached {
		found[sym] = true
		if _, ok := pinned[sym]; !ok {
			t.Errorf("%s is exported but nothing outside tests and benchmark/ names it: delete it, give it a use, or pin it with a reason in %s", sym, unreachedGolden)
		}
	}
	for sym := range pinned {
		if !found[sym] {
			t.Errorf("%s is pinned in %s but is now called or gone: unpin it", sym, unreachedGolden)
		}
	}
}
