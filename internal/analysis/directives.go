package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Syzlint directives are magic comments, written //syzlint:<kind>
// with an optional argument for the reader (no checker reads it), that
// record a human judgment the checkers cannot make themselves:
//
//	//syzlint:wallclock    this wall-clock read feeds operator-facing
//	                       timing stats, not deterministic state
//	//syzlint:unordered    this map iteration's output genuinely does
//	                       not depend on order
//	//syzlint:locked mu    every caller of this function already
//	                       holds mu (lockguard trusts, not verifies)
//	//syzlint:ctx          this context.Background/TODO or blocking
//	                       call is a deliberate API boundary
//
// A directive on a line suppresses findings on that line and the one
// below it; on a func declaration it covers the whole function.

// DirectivePrefix is the comment marker the checkers recognize.
const DirectivePrefix = "//syzlint:"

// DirectiveMap indexes a file's directive kinds by line.
type DirectiveMap map[int][]string

// Has reports whether a directive of the given kind sits on line.
func (m DirectiveMap) Has(kind string, line int) bool {
	for _, k := range m[line] {
		if k == kind {
			return true
		}
	}
	return false
}

// Directives extracts every //syzlint: comment in f, indexed by the
// line the comment sits on.
func Directives(fset *token.FileSet, f *ast.File) DirectiveMap {
	m := DirectiveMap{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, DirectivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, DirectivePrefix)
			kind, _, _ := strings.Cut(rest, " ")
			kind = strings.TrimSpace(kind)
			if kind == "" {
				continue
			}
			line := fset.Position(c.Pos()).Line
			m[line] = append(m[line], kind)
		}
	}
	return m
}

// GuardedBy parses a field's `// guarded by <name>` annotation from
// its doc or trailing comment, returning the named sibling mutex
// field ("" when unannotated). The convention (see lockguard) is
//
//	mu sync.Mutex
//	seeds map[string]int // guarded by mu
//
// and the guard must name a field of the same struct.
func GuardedBy(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
			text = strings.TrimSuffix(text, "*/")
			for _, line := range strings.Split(text, "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "guarded by "); ok {
					name := strings.TrimSpace(rest)
					// Tolerate trailing prose: "guarded by mu (except ...)".
					if i := strings.IndexAny(name, " .,;("); i >= 0 {
						name = name[:i]
					}
					if name != "" {
						return name
					}
				}
			}
		}
	}
	return ""
}
