// Command benchtables regenerates the paper's tables and figures.
//
// Usage:
//
//	benchtables                  # every experiment, paper scale
//	benchtables -quick           # small corpus, small budgets
//	benchtables -only table3     # one experiment
//	benchtables -execs 20000     # override campaign budget
//	benchtables -json out.json   # also export the tables as JSON
//
// -json writes every table that ran as structured JSON (id, title,
// header, rows, notes) for scripted consumers; the human-readable
// tables still print to stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"

	"kernelgpt/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "small corpus and budgets (smoke run)")
	ids := bench.ExperimentIDs()
	only := flag.String("only", "", "comma-separated experiment ids ("+strings.Join(ids, ", ")+")")
	execs := flag.Int("execs", 0, "override whole-suite campaign budget")
	perDriver := flag.Int("perdriver", 0, "override per-driver campaign budget")
	reps := flag.Int("reps", 0, "override repetition count")
	seed := flag.Int64("seed", 0, "override base seed")
	model := flag.String("model", "", "analysis model (gpt-4, gpt-4o, gpt-3.5)")
	workers := flag.Int("workers", 0, "override generation worker-pool size")
	jsonOut := flag.String("json", "", "also write the tables that ran as JSON to FILE (\"-\" = stdout)")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !slices.Contains(ids, id) {
				fmt.Fprintf(os.Stderr, "benchtables: unknown experiment %q in -only (valid: %s)\n", id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := bench.DefaultOptions()
	if *quick {
		opts = bench.QuickOptions()
	}
	if *execs > 0 {
		opts.Execs = *execs
	}
	if *perDriver > 0 {
		opts.PerDriverExecs = *perDriver
	}
	if *reps > 0 {
		opts.Reps = *reps
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *model != "" {
		opts.Model = *model
	}
	if *workers > 0 {
		opts.Workers = *workers
	}

	r := bench.NewRunner(opts)
	r.Ctx = ctx
	fmt.Printf("corpus: %d handlers, kernel: %s\n\n", len(r.Corpus.Handlers), r.Kernel)

	var tables []*bench.Table
	if err := r.All(want, func(t *bench.Table) {
		fmt.Println(t)
		tables = append(tables, t)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "interrupted — remaining experiments skipped; tables already printed may be partial")
		os.Exit(1)
	}
	if *jsonOut != "" {
		if err := exportJSON(*jsonOut, tables); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
	}
}

// tableJSON is the structured export of one rendered table.
type tableJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

func exportJSON(path string, tables []*bench.Table) error {
	doc := struct {
		Tables []tableJSON `json:"tables"`
	}{Tables: make([]tableJSON, 0, len(tables))}
	for _, t := range tables {
		doc.Tables = append(doc.Tables, tableJSON{
			ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes,
		})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
