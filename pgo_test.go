package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// pgoTopSymbols is how many of default.pgo's hottest (by flat time)
// module symbols must still name a declared function.
const pgoTopSymbols = 40

// pgoKnownStale lists the profile symbols that are already gone from
// the tree, with the reason: debt to clear by re-recording default.pgo
// (README "Compiled execution & PGO"), not a licence to add to. The
// test fails when an entry stops being needed, so the list cannot
// outlive the profile it excuses.
var pgoKnownStale = map[string]string{
	"kernelgpt/internal/vkernel.callView.blob": "the interpreter's argument view, deleted in PR 14 after the profile was recorded (PR 12)",
	"kernelgpt/internal/syzlang.Tokenize":      "the parser has streamed from the Lexer since PR 15; the test-only helper went in PR 17",
}

var (
	// closureSuffix matches what the compiler appends to the enclosing
	// function's name for closures, range-func bodies and go/defer
	// wrappers.
	closureSuffix = regexp.MustCompile(`(\.func\d+|\.gowrap\d+|\.deferwrap\d+|-range\d+|\.\d+)+$`)
	// shapeArgs matches a generic instantiation's type arguments:
	// (*slab[go.shape.struct { … }]).alloc is declared as (*slab).alloc.
	shapeArgs = regexp.MustCompile(`\[.*\]`)
)

// declaredFuncs returns every function and method the module's
// non-test sources declare, named the way a profile names them:
// pkgpath.Func, pkgpath.Type.Method, pkgpath.(*Type).Method.
func declaredFuncs(t *testing.T) map[string]bool {
	t.Helper()
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "kernelgpt/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				recv, ptr := fd.Recv.List[0].Type, false
				if star, ok := recv.(*ast.StarExpr); ok {
					recv, ptr = star.X, true
				}
				switch x := recv.(type) { // a generic receiver: slab[T]
				case *ast.IndexExpr:
					recv = x.X
				case *ast.IndexListExpr:
					recv = x.X
				}
				typ := recv.(*ast.Ident).Name
				if ptr {
					typ = "(*" + typ + ")"
				}
				name = typ + "." + name
			}
			declared[pkg+"."+name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// TestPGOProfileSymbolsDeclared is the staleness check for the
// checked-in profile: PGO matches a profile to the code by function
// name, so a profile whose hot symbols were renamed or deleted decays
// silently — the build still succeeds, the speed-up is just gone. The
// hottest module symbols of default.pgo must each still be declared
// (closure and generic-shape suffixes stripped), apart from the known
// stale ones listed above.
func TestPGOProfileSymbolsDeclared(t *testing.T) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000", "default.pgo").Output()
	if err != nil {
		if _, lookErr := exec.LookPath("go"); lookErr != nil {
			t.Skipf("go tool pprof unavailable: %v", lookErr)
		}
		t.Fatalf("go tool pprof -top default.pgo: %v", err)
	}
	declared := declaredFuncs(t)
	var hot []string
	for _, line := range strings.Split(string(out), "\n") {
		i := strings.Index(line, "kernelgpt/")
		if i < 0 || !strings.Contains(line[:i], "%") {
			continue // not a row of the table
		}
		sym := strings.TrimSuffix(line[i:], " (inline)")
		sym = closureSuffix.ReplaceAllString(shapeArgs.ReplaceAllString(sym, ""), "")
		if hot = append(hot, sym); len(hot) == pgoTopSymbols {
			break
		}
	}
	if len(hot) < pgoTopSymbols {
		t.Fatalf("default.pgo lists only %d kernelgpt symbols, want at least %d:\n%s", len(hot), pgoTopSymbols, out)
	}
	stale := map[string]bool{}
	for _, sym := range hot {
		if declared[sym] {
			continue
		}
		stale[sym] = true
		if _, known := pgoKnownStale[sym]; !known {
			t.Errorf("default.pgo hot symbol %s is no longer declared: restore the name or re-record the profile", sym)
		}
	}
	for sym, why := range pgoKnownStale {
		if !stale[sym] {
			t.Errorf("pgoKnownStale entry %s (%s) is no longer needed: delete it", sym, why)
		}
	}
}
