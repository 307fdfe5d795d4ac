// Command corpusdump writes the synthetic kernel's rendered C source
// tree to disk for inspection, plus the ground-truth (oracle) and
// human-suite syzlang specifications per handler. It also reads and
// writes the persistent fuzzing-corpus store format
// (internal/fuzz/corpusstore): -store lists a store's entries and
// re-validates each one against the full oracle target (exiting
// nonzero when any entry is invalid or stale, so CI can gate on
// store health), -add inserts a repro file into a store with a
// measured priority, and -merge folds one store into another.
//
// Usage:
//
//	corpusdump -out /tmp/kernel                  # full tree
//	corpusdump -handler dm                       # one handler to stdout
//	corpusdump -handler dm -what oracle          # its ground-truth spec
//	corpusdump -store /tmp/corpus                # list + validate a corpus store
//	corpusdump -store /tmp/corpus -add repro.txt # add a repro to the store
//	corpusdump -store /tmp/a -merge /tmp/b       # merge store b into store a
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/vkernel"
)

func main() {
	out := flag.String("out", "", "directory to write the full tree into")
	handler := flag.String("handler", "", "print one handler instead")
	what := flag.String("what", "source", "what to print for -handler: source, oracle, human")
	scale := flag.Float64("scale", 1.0, "corpus scale")
	store := flag.String("store", "", "corpus store directory to list and validate")
	add := flag.String("add", "", "repro file to add into the -store")
	merge := flag.String("merge", "", "source corpus store directory to merge into the -store")
	mergeCap := flag.Int("merge-cap", 0, "seed bound for -merge (0 = lossless: keep every seed of both stores)")
	flag.Parse()

	c := corpus.Build(corpus.Config{Scale: *scale})

	if *store != "" {
		storeMain(c, *store, *add, *merge, *mergeCap)
		return
	}

	if *handler != "" {
		h := c.Handler(*handler)
		if h == nil {
			fmt.Fprintf(os.Stderr, "unknown handler %q\n", *handler)
			os.Exit(2)
		}
		switch *what {
		case "source":
			fmt.Print(c.Index.Files()[h.SourcePath()])
		case "oracle":
			fmt.Print(syzlang.Format(corpus.OracleSpec(h)))
		case "human":
			spec := corpus.SyzkallerSpec(h)
			if spec == nil {
				fmt.Fprintln(os.Stderr, "handler has no existing descriptions")
				os.Exit(1)
			}
			fmt.Print(syzlang.Format(spec))
		default:
			fmt.Fprintf(os.Stderr, "unknown -what %q\n", *what)
			os.Exit(2)
		}
		return
	}

	if *out == "" {
		fmt.Fprintln(os.Stderr, "usage: corpusdump -out DIR | -handler NAME [-what source|oracle|human] | -store DIR [-add FILE | -merge SRCDIR]")
		os.Exit(2)
	}
	files := 0
	srcs := c.Index.Files()
	paths := make([]string, 0, len(srcs))
	for path := range srcs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		src := srcs[path]
		full := filepath.Join(*out, "src", path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		files++
	}
	specs := 0
	for _, h := range c.Handlers {
		if !h.Loaded {
			continue
		}
		dir := filepath.Join(*out, "specs", h.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		writeSpec(filepath.Join(dir, "oracle.txt"), corpus.OracleSpec(h))
		if spec := corpus.SyzkallerSpec(h); spec != nil {
			writeSpec(filepath.Join(dir, "syzkaller.txt"), spec)
		}
		specs++
	}
	fmt.Printf("wrote %d source files and %d handler spec dirs under %s\n", files, specs, *out)
}

func writeSpec(path string, f *syzlang.File) {
	if err := os.WriteFile(path, []byte(syzlang.Format(f)), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// storeMain is the corpus-store mode: list + validate (exiting
// nonzero when any entry fails re-validation), merge another store
// in, or add a repro.
func storeMain(c *corpus.Corpus, dir, add, merge string, mergeCap int) {
	spec, err := c.WidestSuite()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tgt, err := prog.Compile(spec, c.Env())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st, err := corpusstore.Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if add != "" && merge != "" {
		fmt.Fprintln(os.Stderr, "-add and -merge are mutually exclusive")
		os.Exit(2)
	}
	if add != "" {
		addToStore(c, st, tgt, add)
		return
	}
	if merge != "" {
		mergeStores(st, tgt, merge, mergeCap)
		return
	}
	seeds, rep, err := st.Load(tgt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m := st.Image() // the manifest Load just read
	skipped := map[string]string{}
	for _, s := range rep.Skipped {
		skipped[s.File] = s.Reason
	}
	fmt.Printf("corpus store %s: %d entries, store cover %d blocks\n", st.Dir(), len(m.Seeds), m.CoverBlocks)
	fmt.Println("file                      weight  op          calls  status")
	i := 0
	for _, e := range m.Seeds {
		status, calls := "ok", "-"
		if reason, bad := skipped[e.File]; bad {
			status = "SKIP: " + reason
		} else if i < len(seeds) {
			calls = fmt.Sprint(len(seeds[i].Prog.Calls))
			i++
		}
		op := e.Op
		if op == "" {
			op = "generated"
		}
		fmt.Printf("%-25s %6d  %-10s %6s  %s\n", e.File, e.Prio+e.Bonus, op, calls, status)
	}
	fmt.Printf("%d valid, %d skipped\n", rep.Loaded, len(rep.Skipped))
	// Invalid/stale entries are an actionable condition (a spec drifted,
	// a file was corrupted): make the exit status say so for CI.
	if len(rep.Skipped) > 0 {
		os.Exit(1)
	}
}

// mergeStores folds the src store into dst via corpusstore.Merge:
// union of both, deduplicated by program text keeping the
// higher-weight copy, bounded deterministically. The default bound is
// lossless — every seed of both stores survives minus duplicates —
// because a CLI merge must not silently truncate a store built with a
// larger-than-default capacity; pass -merge-cap to shrink. Invalid
// src entries are reported and left behind; invalid dst entries
// refuse the merge (rewriting dst would delete them).
func mergeStores(dst *corpusstore.Store, tgt *prog.Target, srcDir string, mergeCap int) {
	src, err := corpusstore.Open(srcDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srcSeeds, srcRep, err := src.Load(tgt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(srcRep.Skipped) > 0 {
		fmt.Fprintf(os.Stderr, "note: %d invalid source entries stay behind (%s)\n", len(srcRep.Skipped), srcRep)
	}
	dstSeeds, dstRep, err := dst.Load(tgt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(dstRep.Skipped) > 0 {
		fmt.Fprintf(os.Stderr, "%s\nrefusing to rewrite a store with invalid entries (a rewrite would delete them); inspect with: corpusdump -store %s\n", dstRep, dst.Dir())
		os.Exit(1)
	}
	cover := dstRep.CoverBlocks
	if srcRep.CoverBlocks > cover {
		cover = srcRep.CoverBlocks
	}
	if mergeCap <= 0 {
		mergeCap = len(dstSeeds) + len(srcSeeds)
		if mergeCap == 0 {
			mergeCap = 1 // Merge treats <=0 as the default capacity
		}
	}
	merged := corpusstore.Merge(mergeCap, dstSeeds, srcSeeds)
	if err := dst.Save(merged, cover); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("merged %s (%d seeds) into %s: now %d seeds (was %d)\n",
		src.Dir(), len(srcSeeds), dst.Dir(), len(merged), len(dstSeeds))
}

// addToStore measures a repro's coverage on the kernel and merges it
// into the store with that coverage as its priority.
func addToStore(c *corpus.Corpus, st *corpusstore.Store, tgt *prog.Target, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p, err := prog.Deserialize(tgt, string(data))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad repro: %v\n", err)
		os.Exit(1)
	}
	prio := max(len(vkernel.New(c).NewVM().Run(p).Cov), 1) // Cov is deduplicated
	seeds, rep, err := st.Load(tgt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Rewriting the store drops anything Load skipped — refuse rather
	// than silently deleting entries the user may want to salvage.
	if len(rep.Skipped) > 0 {
		fmt.Fprintf(os.Stderr, "%s\nrefusing to rewrite a store with invalid entries (a rewrite would delete them); inspect with: corpusdump -store %s\n", rep, st.Dir())
		os.Exit(1)
	}
	// Bound the merge by what it holds: a store built with a larger
	// capacity (or by a lossless -merge) keeps every seed.
	text := p.Serialize()
	merged := corpusstore.Merge(len(seeds)+1, seeds, []seedpool.SeedState{{Text: text, Prio: prio}})
	if err := st.Save(merged, rep.CoverBlocks); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("added %s to %s (prio %d, %d calls); store now %d seeds\n",
		corpusstore.FileFor(text), st.Dir(), prio, len(p.Calls), len(merged))
}
