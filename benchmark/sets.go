package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runRecord is one child run in a result set.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	WallS    float64 `json:"wall_s"`
	result
}

// resultSet is one full set: every workload, setRuns untraced runs on
// consecutive seeds plus one traced run.
type resultSet struct {
	Header map[string]string `json:"header"`
	Runs   []runRecord       `json:"runs"`
}

// setRuns is the untraced runs per workload in a set, on seeds -seed,
// -seed+1, ...: the ten the acceptance rule takes its quartiles from.
const setRuns = 10

// runSet runs one full set and writes it to out. Two sets of one
// commit, compared with -compare, are the A/A check.
func runSet(spec *benchSpec, bin string, seed int64, seconds int, out string) error {
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	// The children's scratch directories are under buildDir.
	set := &resultSet{Header: header(seed, buildDir)}
	set.Header["seconds"] = fmt.Sprint(seconds)
	for _, w := range spec.Workloads {
		for i := 0; i <= setRuns; i++ {
			rec := runRecord{Workload: w.Name, Seed: seed + int64(i)}
			if i == setRuns {
				rec.Seed, rec.Trace = seed, 1
			}
			if err := runOne(bin, &rec, seconds); err != nil {
				return fmt.Errorf("%s seed %d trace %d: %w", rec.Workload, rec.Seed, rec.Trace, err)
			}
			fmt.Printf("%-17s seed %-3d trace %d  %5.1f s  %d/%d checks failed\n",
				rec.Workload, rec.Seed, rec.Trace, rec.WallS, rec.Failed, rec.Attempted)
			set.Runs = append(set.Runs, rec)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// runOne runs one child and parses the result line it ends with.
func runOne(bin string, rec *runRecord, seconds int) error {
	cmd := childCommand(bin, rec.Workload, rec.Seed, seconds, rec.Trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	t0 := time.Now()
	runErr := cmd.Run()
	rec.WallS = time.Since(t0).Seconds()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
		return errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	return runErr
}

// --- compare ---------------------------------------------------------

// detachedDeterministic are the end-to-end metrics that must repeat
// bit for bit on one seed wherever no two campaigns race (everywhere
// but fleet_sync); tracedDeterministic the traced specgen_full ones.
var (
	detachedDeterministic = []string{"cover_blocks", "crashes_found"}
	tracedDeterministic   = []string{"core.valid_spec_frac", "core.new_syscalls", "llm.tokens_per_handler"}
)

// quartiles returns the quartiles of vals as Python's
// statistics.quantiles(vals, n=4) gives them.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// side is one result set's values of one (metric, workload) pair.
type side struct {
	q1, med, q3 float64
	spread      float64
	min, max    float64
}

func newSide(vals []float64) side {
	var s side
	s.q1, s.med, s.q3 = quartiles(vals)
	s.spread = ratio(s.q3-s.q1, s.med)
	s.min, s.max = vals[0], vals[0]
	for _, v := range vals {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	return s
}

// verdict marks one (metric, workload) row: regressed when B's median
// is worse than A's by more than the bound; unresolved when either
// side's spread is wider than the bound, unless every B run is better
// than every A run; ok otherwise.
func verdict(a, b side, better string, bound float64) string {
	worse := ratio(b.med-a.med, a.med)
	allBetter := b.max < a.min
	if better == "higher" {
		worse = -worse
		allBetter = b.min > a.max
	}
	switch {
	case (a.spread > bound || b.spread > bound) && !allBetter:
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "ok"
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects a set's untraced values of one pair, in seed order.
func (s *resultSet) values(workload, metric string, trace int) (vals []float64, seeds []int64) {
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Metrics[metric]; ok {
				vals = append(vals, m.Value)
				seeds = append(seeds, r.Seed)
			}
		}
	}
	return vals, seeds
}

// compareFiles prints, per (metric, workload), both sets' medians and
// quartiles and B's change against A, marks each row by the bounds in
// BENCHMARK.json alone, and, when both sets are of one commit, checks
// that the deterministic metrics repeat exactly. It returns an error
// on any regressed row, failed run or determinism break.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (commit %s)\nB = %s (commit %s)\n", pathA, a.Header["commit"], pathB, b.Header["commit"])
	fmt.Fprintf(w, "%-16s %-17s %3s %12s %12s %12s | %12s %12s %12s | %8s %7s %7s %6s  %s\n",
		"metric", "workload", "n", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B/A", "A sprd", "B sprd", "bound", "status")
	var problems []string
	for _, m := range spec.EndToEnd {
		for _, wl := range spec.Workloads {
			va, _ := a.values(wl.Name, m.Name, 0)
			vb, _ := b.values(wl.Name, m.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				problems = append(problems, fmt.Sprintf("%s on %s: missing from a set", m.Name, wl.Name))
				continue
			}
			sa, sb := newSide(va), newSide(vb)
			status := verdict(sa, sb, m.Better, *m.Bound)
			fmt.Fprintf(w, "%-16s %-17s %3d %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %8.4f %7.4f %7.4f %6.2f  %s\n",
				m.Name, wl.Name, len(va), sa.q1, sa.med, sa.q3, sb.q1, sb.med, sb.q3,
				ratio(sb.med, sa.med), sa.spread, sb.spread, *m.Bound, status)
			if status == "regressed" {
				problems = append(problems, fmt.Sprintf("%s on %s regressed: B median %.6g against A median %.6g (%s is better, bound %.2f)",
					m.Name, wl.Name, sb.med, sa.med, m.Better, *m.Bound))
			}
		}
	}
	for _, set := range []*resultSet{a, b} {
		for _, r := range set.Runs {
			if r.Failed > 0 || !r.Correct {
				problems = append(problems, fmt.Sprintf("%s seed %d trace %d: %d of %d output checks failed", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted))
			}
		}
	}
	// Two sets of one commit must repeat the deterministic metrics bit
	// for bit; across commits a change may move them, and the bounds
	// above judge by how much.
	if c := a.Header["commit"]; c == b.Header["commit"] && c != "unknown" && !strings.HasSuffix(c, "+edits") {
		problems = append(problems, checkDeterminism(w, spec, a, b)...)
	} else {
		fmt.Fprintln(w, "determinism: not checked, the sets are not known to be of one commit without edits")
	}
	for _, p := range problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems comparing %s with %s", len(problems), pathA, pathB)
	}
	return nil
}

// checkDeterminism compares the deterministic metrics of two sets of
// one commit seed by seed; they must be bit-equal.
func checkDeterminism(w io.Writer, spec *benchSpec, a, b *resultSet) []string {
	var problems []string
	same := func(workload, metric string, trace int) {
		va, seedsA := a.values(workload, metric, trace)
		vb, seedsB := b.values(workload, metric, trace)
		for i := range va {
			if i >= len(vb) || seedsA[i] != seedsB[i] {
				return // different seed lists: nothing to pair
			}
			if va[i] != vb[i] {
				problems = append(problems, fmt.Sprintf("%s on %s, seed %d: not deterministic, %v in A and %v in B", metric, workload, seedsA[i], va[i], vb[i]))
			}
		}
	}
	checked := 0
	for _, wl := range spec.Workloads {
		if wl.Name != "fleet_sync" {
			for _, m := range detachedDeterministic {
				same(wl.Name, m, 0)
				checked++
			}
		}
	}
	for _, m := range tracedDeterministic {
		same("specgen_full", m, 1)
		checked++
	}
	fmt.Fprintf(w, "determinism: %d (metric, workload) pairs compared seed by seed, %d differ\n", checked, len(problems))
	return problems
}
