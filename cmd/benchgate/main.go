// Command benchgate is the CI benchmark-regression gate: it parses
// `go test -bench` output from stdin, reduces repeated runs (-count N)
// to per-benchmark medians, and compares ns/op and allocs/op against
// the recorded baseline in BENCH_fuzz.json with a relative tolerance.
// Any gated benchmark regressing beyond the tolerance fails the build
// (exit 1). Benchmarks present in the stream but absent from the
// baseline are reported and ignored.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x -count 3 ./internal/vkernel ./internal/fuzz | benchgate -baseline BENCH_fuzz.json
//	... | benchgate -baseline BENCH_fuzz.json -record   # re-baseline
//
// Baselines are keyed by "<import path>.<BenchmarkName>" so same-named
// benchmarks in different packages stay distinct. -record rewrites the
// baseline's gate section with the observed medians (commit the result
// to re-baseline after an intentional perf change).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_fuzz.json", "baseline file with a top-level \"gate\" section")
	tolerance := flag.Float64("tolerance", 0, "relative regression tolerance (0 = use the baseline's own; default 0.15)")
	record := flag.Bool("record", false, "rewrite the baseline gate entries with the observed medians instead of comparing")
	flag.Parse()

	observed, err := ParseBenchOutput(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(observed) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results on stdin")
		os.Exit(2)
	}

	if *record {
		if err := RecordBaseline(*baselinePath, observed); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: recorded %d benchmark medians into %s\n", len(observed), *baselinePath)
		return
	}

	gate, err := LoadGate(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	tol := gate.Tolerance
	if *tolerance > 0 {
		tol = *tolerance
	}
	results := Compare(gate, observed, tol)
	failed := false
	info := 0
	for _, r := range results {
		fmt.Println(r)
		if r.Failed() {
			failed = true
		}
		if r.Informational() {
			info++
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: regression beyond ±%.0f%% tolerance\n", tol*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within ±%.0f%% of baseline", len(results)-info, tol*100)
	if info > 0 {
		fmt.Printf("; %d informational (not in baseline; -record to gate)", info)
	}
	fmt.Println()
}

// Sample is one benchmark measurement.
type Sample struct {
	NsPerOp     float64
	AllocsPerOp float64
	HasAllocs   bool
}

// ParseBenchOutput reads `go test -bench` output and returns the
// median sample per "<pkg>.<BenchmarkName>" key (the CPU-count suffix
// like "-8" is stripped).
func ParseBenchOutput(r io.Reader) (map[string]Sample, error) {
	raw := map[string][]Sample{}
	pkg := ""
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	for _, line := range splitLines(string(data)) {
		fields := splitFields(line)
		if len(fields) >= 2 && fields[0] == "pkg:" {
			pkg = fields[1]
			continue
		}
		if len(fields) < 4 || !hasBenchPrefix(fields[0]) {
			continue
		}
		var s Sample
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			switch fields[i+1] {
			case "ns/op":
				if v, err := parseFloat(fields[i]); err == nil {
					s.NsPerOp = v
					ok = true
				}
			case "allocs/op":
				if v, err := parseFloat(fields[i]); err == nil {
					s.AllocsPerOp = v
					s.HasAllocs = true
				}
			}
		}
		if !ok {
			continue
		}
		key := pkg + "." + trimCPUSuffix(fields[0])
		raw[key] = append(raw[key], s)
	}
	out := make(map[string]Sample, len(raw))
	for key, samples := range raw {
		out[key] = median(samples)
	}
	return out, nil
}

// median reduces repeated runs to the median ns/op sample (ties break
// low; allocs come from the same run as the chosen ns/op, which keeps
// the two numbers consistent).
func median(samples []Sample) Sample {
	sorted := append([]Sample(nil), samples...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j-1].NsPerOp > sorted[j].NsPerOp; j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	return sorted[len(sorted)/2]
}

// GateEntry is one recorded baseline.
type GateEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Gate is the comparison section of the baseline file.
type Gate struct {
	Tolerance  float64              `json:"tolerance"`
	Command    string               `json:"command,omitempty"`
	Benchmarks map[string]GateEntry `json:"benchmarks"`
}

// baselineFile is the full BENCH_fuzz.json shape benchgate cares
// about; unknown fields are preserved via the raw map in record mode.
type baselineFile struct {
	Gate *Gate `json:"gate"`
}

// LoadGate reads the gate section of the baseline file.
func LoadGate(path string) (*Gate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f baselineFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Gate == nil || len(f.Gate.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no gate section; run benchgate -record to create one", path)
	}
	if f.Gate.Tolerance <= 0 {
		f.Gate.Tolerance = 0.15
	}
	return f.Gate, nil
}

// RecordBaseline rewrites the gate benchmark entries with observed
// medians, preserving every other field of the baseline file.
func RecordBaseline(path string, observed map[string]Sample) error {
	raw := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &raw); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	gate, _ := raw["gate"].(map[string]any)
	if gate == nil {
		gate = map[string]any{"tolerance": 0.15}
		raw["gate"] = gate
	}
	benches := map[string]any{}
	for key, s := range observed {
		benches[key] = map[string]any{
			"ns_per_op":     s.NsPerOp,
			"allocs_per_op": s.AllocsPerOp,
		}
	}
	gate["benchmarks"] = benches
	out, err := json.MarshalIndent(raw, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Result is one benchmark's gate verdict.
type Result struct {
	Name         string
	Metric       string
	Base, Got    float64
	Ratio        float64
	Tolerance    float64
	MissingBase  bool
	MissingBench bool
}

// Failed reports whether this result fails the gate. A baseline
// benchmark that was not measured fails too: a gate that goes green
// because a benched package stopped running is no gate at all
// (removing a benchmark intentionally requires -record). The inverse
// — measured but not in the baseline — is informational only (see
// Informational), so adding a benchmark never demands a same-commit
// re-record.
func (r Result) Failed() bool {
	if r.MissingBench {
		return true
	}
	return !r.MissingBase && r.Ratio > 1+r.Tolerance
}

// Informational reports whether this result is printed for visibility
// only and takes no part in the gate verdict: a benchmark that ran
// but has no recorded baseline yet.
func (r Result) Informational() bool { return r.MissingBase }

// String renders the verdict line.
func (r Result) String() string {
	switch {
	case r.MissingBase:
		return fmt.Sprintf("INFO %-60s not in baseline (informational; run -record to gate it)", r.Name)
	case r.MissingBench:
		return fmt.Sprintf("FAIL %-60s in baseline but not measured (re-record to drop it)", r.Name)
	case r.Failed():
		return fmt.Sprintf("FAIL %-60s %s %.0f -> %.0f (%+.1f%% > +%.0f%%)",
			r.Name, r.Metric, r.Base, r.Got, (r.Ratio-1)*100, r.Tolerance*100)
	default:
		return fmt.Sprintf("ok   %-60s %s %.0f -> %.0f (%+.1f%%)",
			r.Name, r.Metric, r.Base, r.Got, (r.Ratio-1)*100)
	}
}

// Compare evaluates every observed benchmark (and every baseline
// entry) against the gate. A benchmark fails when either ns/op or
// allocs/op regresses beyond the tolerance; the worse metric is
// reported.
func Compare(gate *Gate, observed map[string]Sample, tol float64) []Result {
	var out []Result
	for _, name := range sortedKeys(observed) {
		s := observed[name]
		base, ok := gate.Benchmarks[name]
		if !ok {
			out = append(out, Result{Name: name, MissingBase: true})
			continue
		}
		r := Result{Name: name, Metric: "ns/op", Base: base.NsPerOp, Got: s.NsPerOp, Tolerance: tol}
		if base.NsPerOp > 0 {
			r.Ratio = s.NsPerOp / base.NsPerOp
		}
		if s.HasAllocs && base.AllocsPerOp > 0 {
			if ar := s.AllocsPerOp / base.AllocsPerOp; ar > r.Ratio {
				r = Result{Name: name, Metric: "allocs/op", Base: base.AllocsPerOp,
					Got: s.AllocsPerOp, Ratio: ar, Tolerance: tol}
			}
		}
		out = append(out, r)
	}
	for _, name := range sortedKeys(gate.Benchmarks) {
		if _, ok := observed[name]; !ok {
			out = append(out, Result{Name: name, MissingBench: true})
		}
	}
	return out
}
