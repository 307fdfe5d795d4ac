// Command syzlint is the repo's invariant multichecker: it runs the
// custom static analyzers in internal/analysis — detorder (map
// iteration order escaping into serialized output), lockguard
// (`// guarded by mu` lock discipline), detrand (wall clock / global
// RNG in deterministic packages), and ctxhygiene (ctx-aware blocking
// APIs) — over the Go packages the arguments match (default ./...).
// It exits 0 when they are clean, 1 on any finding and 2 when the
// packages do not load. CI gates the lint job on it; run it locally
// before pushing:
//
//	go run ./cmd/syzlint ./...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"kernelgpt/internal/analysis"
	"kernelgpt/internal/analysis/ctxhygiene"
	"kernelgpt/internal/analysis/detorder"
	"kernelgpt/internal/analysis/detrand"
	"kernelgpt/internal/analysis/lockguard"
)

// All is the multichecker's analyzer suite.
var All = []*analysis.Analyzer{
	ctxhygiene.Analyzer,
	detorder.Analyzer,
	detrand.Analyzer,
	lockguard.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("syzlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: syzlint [packages] (default ./...)\n\nanalyzers:")
		for _, a := range All {
			fmt.Fprintf(stderr, "  %s: %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pkgs, err := analysis.Load(".", fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "syzlint: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, All)
	if err != nil {
		fmt.Fprintf(stderr, "syzlint: %v\n", err)
		return 2
	}
	if len(diags) == 0 {
		return 0
	}
	analysis.Print(stdout, pkgs[0].Fset, diags)
	fmt.Fprintf(stderr, "syzlint: %d finding(s)\n", len(diags))
	return 1
}
