// Package detorder flags map iterations whose nondeterministic order
// can escape into outputs that must be byte-stable: wire encodings,
// serialized manifests, merged stats, digests, and RNG-consuming
// code. This is the exact bug class fixed by hand twice already
// (PR 4's mergeInto tie-break, PR 5's crash table) — an unsorted
// `for k := range m` feeding an encoder makes /v1/stats, hubstate
// sidecars, or shard merges differ run to run.
//
// A `range` over a map is reported when its body
//
//   - calls a serialization sink (encoding/json|xml|gob, an Encode /
//     Write / WriteString method — which covers hash.Hash — or a
//     fmt.Print*/Fprint* call),
//   - consumes randomness from a *math/rand.Rand (iteration order
//     would perturb the RNG stream),
//   - sends on a channel, or
//   - appends to a slice declared outside the loop that is not
//     passed to a sort.*/slices.Sort* call later in the same
//     function (collect-then-sort is the sanctioned pattern).
//
// Pure reductions — map writes, delete, counters, min/max — pass.
//
// Not reported: a `return` (or break-with-result) from inside the
// range — a first-match search such as
//
//	for name, m := range macros { if matches(m) { return name } }
//
// is order-dependent exactly when more than one entry can match, and
// is the ordinary way to look up a unique entry when only one can;
// the checker cannot tell the two apart, so flagging the shape would
// bury the tree in //syzlint:unordered annotations. Such searches are
// held by output contracts instead (llm.invertNr was one until it
// became a min reduction; engine's TestSpecgenContract pins it), and
// the fixture's firstMatch/minMatch pair documents the blind spot.
// An iteration whose order provably cannot matter but that trips the
// heuristics opts out with //syzlint:unordered.
package detorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"kernelgpt/internal/analysis"
)

// Analyzer is the detorder checker.
var Analyzer = &analysis.Analyzer{
	Name: "detorder",
	Doc: "flag map iteration whose order escapes into encoders, digests, RNG draws, channels, " +
		"or unsorted collected slices; opt out with //syzlint:unordered",
	Run: run,
}

// encodingPackages are treated as serialization sinks wholesale.
var encodingPackages = map[string]bool{
	"encoding/json": true, "encoding/xml": true, "encoding/gob": true,
	"encoding/binary": true,
}

// sinkMethods are method names that commit bytes in call order.
var sinkMethods = map[string]bool{
	"Encode": true, "Write": true, "WriteString": true, "WriteByte": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if pass.Suppressed("unordered", rs.For) {
			return true
		}
		checkMapRange(pass, body, rs)
		return true
	})
}

// checkMapRange inspects one map-range loop for order-escaping
// sinks.
func checkMapRange(pass *analysis.Pass, fn *ast.BlockStmt, rs *ast.RangeStmt) {
	var appends []appendSite
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "map iteration order escapes through a channel send; collect and sort first (or annotate //syzlint:unordered)")
		case *ast.CallExpr:
			if site, ok := appendTarget(pass, n, rs); ok {
				appends = append(appends, site)
				return true
			}
			if what := sinkCall(pass, n); what != "" {
				pass.Reportf(n.Pos(), "map iteration order escapes into %s; iterate sorted keys instead (or annotate //syzlint:unordered)", what)
			}
		}
		return true
	})
	for _, site := range appends {
		if !sortedAfter(pass, fn, rs.End(), site.target) {
			pass.Reportf(site.pos, "slice %s collects map-range values but is never sorted in this function; sort it before it escapes (or annotate //syzlint:unordered)", site.target)
		}
	}
}

type appendSite struct {
	target string
	pos    token.Pos
}

// appendTarget recognizes `x = append(x, ...)` inside the loop where
// x is declared outside it, returning x's printed form.
func appendTarget(pass *analysis.Pass, call *ast.CallExpr, rs *ast.RangeStmt) (appendSite, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return appendSite{}, false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return appendSite{}, false
	}
	target := call.Args[0]
	// A target rooted at a variable declared inside the loop body
	// cannot outlive an iteration, so its order cannot escape.
	if root := rootIdent(target); root != nil {
		if obj := pass.TypesInfo.Uses[root]; obj != nil {
			if rs.Body.Pos() <= obj.Pos() && obj.Pos() < rs.Body.End() {
				return appendSite{}, false
			}
		}
	}
	return appendSite{target: types.ExprString(target), pos: call.Pos()}, true
}

// rootIdent returns the base identifier of an expression chain
// (a.b.c -> a, s[i] -> s).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sinkCall classifies a call as a serialization/randomness sink,
// returning a description ("" if benign).
func sinkCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	// Package-qualified: encoding/* and fmt printers.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			path := pn.Imported().Path()
			if encodingPackages[path] {
				return path + "." + sel.Sel.Name
			}
			if path == "fmt" && (strings.HasPrefix(sel.Sel.Name, "Print") || strings.HasPrefix(sel.Sel.Name, "Fprint")) {
				return "fmt." + sel.Sel.Name
			}
			return ""
		}
	}
	// Method sinks: Encode/Write/... on any receiver (covers
	// json.Encoder, bufio.Writer, hash.Hash, strings.Builder).
	if sinkMethods[sel.Sel.Name] {
		if selInfo, ok := pass.TypesInfo.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
			return types.TypeString(selInfo.Recv(), nil) + "." + sel.Sel.Name
		}
	}
	// RNG draws: any method on *math/rand.Rand.
	if t := pass.TypesInfo.TypeOf(sel.X); t != nil {
		if ptr, ok := t.(*types.Pointer); ok {
			if named, ok := ptr.Elem().(*types.Named); ok {
				obj := named.Obj()
				if obj.Name() == "Rand" && obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), "math/rand") {
					return "a *rand.Rand draw (the RNG stream becomes order-dependent)"
				}
			}
		}
	}
	return ""
}

// sortedAfter reports whether a sort.*/slices.* call mentioning
// target appears in fn after pos.
func sortedAfter(pass *analysis.Pass, fn *ast.BlockStmt, pos token.Pos, target string) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if mentions(arg, target) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes sort.*/slices.* calls and calls to local
// helpers with "sort" in their name (sortStructs(xs) counts).
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
				path := pn.Imported().Path()
				return path == "sort" || path == "slices"
			}
		}
		return strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	}
	return false
}

// mentions reports whether expression e contains a sub-expression
// printing as target (so sort.Sort(byName(out)) counts for out).
func mentions(e ast.Expr, target string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if sub, ok := n.(ast.Expr); ok && types.ExprString(sub) == target {
			found = true
			return false
		}
		return true
	})
	return found
}
