// Command kgbench is the repository's benchmark: six workloads that
// stress different layers of the two pipelines (specification
// generation, fuzzing), end-to-end metrics from untraced runs and
// per-layer metrics from separate traced runs. BENCHMARK.json at the
// repository root declares the workloads, metrics and regression
// bounds; README.md in this directory explains each.
//
//	go run ./benchmark --workload campaign_wide --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -out A.json
//	go run ./benchmark -compare A.json B.json
//
// Started from the repository root, the command first builds itself
// with the profile the shipped binaries use (-pgo=default.pgo) and
// runs every workload in a child process of that build.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

const (
	specFile = "BENCHMARK.json"
	pgoFile  = "default.pgo"
	// buildDir holds everything a run leaves behind: the PGO build,
	// scratch stores, traces and result sets. .gitignore names it.
	buildDir = ".bench_build"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// run is the untraced run the end-to-end metrics come from; trace
	// is the separate traced run behind the per-layer metrics.
	run   func(ctx context.Context, e *env, p params) (*outcome, error)
	trace func(ctx context.Context, e *env, p params, tr *tracer) (*outcome, error)
}

// Sizes are quoted for the driver's 10 s run and scale with -seconds.
var workloads = []*workload{
	{
		name: "specgen_full", run: runSpecgen, trace: traceSpecgen,
	},
	{
		name: "campaign_wide",
		run: func(ctx context.Context, e *env, p params) (*outcome, error) {
			return runCampaigns(ctx, e, p, e.wide, p.campaignSize(9, 50000), serialRunner), nil
		},
		trace: func(ctx context.Context, e *env, p params, tr *tracer) (*outcome, error) {
			return traceCampaigns(ctx, e, p, tr, e.wide, p.campaignSize(3, 50000)), nil
		},
	},
	{
		name: "campaign_deep",
		run: func(ctx context.Context, e *env, p params) (*outcome, error) {
			return runCampaigns(ctx, e, p, e.deep, p.campaignSize(14, 10000), serialRunner), nil
		},
		trace: func(ctx context.Context, e *env, p params, tr *tracer) (*outcome, error) {
			return traceCampaigns(ctx, e, p, tr, e.deep, p.campaignSize(5, 10000)), nil
		},
	},
	{
		name: "campaign_sharded",
		run: func(ctx context.Context, e *env, p params) (*outcome, error) {
			return runCampaigns(ctx, e, p, e.wide, p.campaignSize(8, 100000), shardedRunner(p.procs)), nil
		},
		trace: func(ctx context.Context, e *env, p params, tr *tracer) (*outcome, error) {
			return traceSharded(ctx, e, p, tr, p.campaignSize(3, 100000)), nil
		},
	},
	{
		name: "fleet_sync", run: runFleetSync, trace: traceFleetSync,
	},
	{
		name: "persist_resume", run: runPersistResume, trace: tracePersistResume,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// result is the last line a run prints: the driver's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (one of BENCHMARK.json's); empty runs one full set")
		seed    = flag.Int64("seed", 1, "derives every campaign seed and sim-model seed")
		seconds = flag.Int("seconds", 0, "run length the workload is sized for (0: BENCHMARK.json's run_seconds)")
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics, spans.jsonl); 0: the untraced run (end-to-end metrics)")
		child   = flag.Bool("child", false, "internal: this process is the PGO build running one workload")
		out     = flag.String("out", filepath.Join(buildDir, "set.json"), "file the full set is written to")
		compare = flag.Bool("compare", false, "compare two result sets: kgbench -compare A.json B.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *child, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "kgbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, child bool, out string, compare bool, args []string) error {
	spec, err := loadSpec(specFile)
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if compare {
		if len(args) != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(os.Stdout, spec, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	if child {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		return runChild(spec, w, seed, seconds, trace)
	}
	bin, err := buildPGO()
	if err != nil {
		return err
	}
	if name != "" {
		if findWorkload(name) == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		cmd := childCommand(bin, name, seed, seconds, trace)
		cmd.Stdout = os.Stdout
		return cmd.Run()
	}
	return runSet(spec, bin, seed, seconds, out)
}

// buildPGO compiles this package with the shipped profile and returns
// the binary's path.
func buildPGO() (string, error) {
	for _, f := range []string{"go.mod", pgoFile} {
		if _, err := os.Stat(f); err != nil {
			return "", fmt.Errorf("run from the repository root: %w", err)
		}
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(buildDir, "kgbench")
	cmd := exec.Command("go", "build", "-pgo="+pgoFile, "-o", bin, "./benchmark")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build -pgo=%s: %w", pgoFile, err)
	}
	return bin, nil
}

func childCommand(bin, name string, seed int64, seconds, trace int) *exec.Cmd {
	cmd := exec.Command(bin, "-child", "-workload", name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	return cmd
}

// header is what the numbers depend on besides the code.
func header(seed int64, tmp string) map[string]string {
	h := map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"seed":       fmt.Sprint(seed),
		"pgo_sha256": "unknown",
		"commit":     "unknown",
		"tmp_fs":     "unknown",
	}
	if data, err := os.ReadFile(pgoFile); err == nil {
		h["pgo_sha256"] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	// The driver's checkout is not a git repository; the commit is
	// recorded where there is one, marked when the tree has edits on top
	// of it.
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h["commit"] = strings.TrimSpace(string(rev))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err != nil || len(st) > 0 {
			h["commit"] += "+edits"
		}
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(tmp, &fs); err == nil {
		h["tmp_fs"] = fmt.Sprintf("0x%x", fs.Type)
	}
	return h
}

func printHeader(h map[string]string) {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s: %s\n", k, h[k])
	}
}

// runChild runs one workload in this process and prints its result.
func runChild(spec *benchSpec, w *workload, seed int64, seconds, trace int) error {
	tmp, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	p := params{seed: seed, seconds: seconds, scale: 1.0, procs: loadProcs(), tmp: tmp}
	printHeader(header(seed, tmp))
	ctx := context.Background()

	var o *outcome
	var values map[string]float64
	var declared []metricDef
	if trace == 0 {
		e, setupS, setupRef, err := measureSetup(p)
		if err != nil {
			return err
		}
		if o, err = w.run(ctx, e, p); err != nil {
			return err
		}
		values, declared = o.endToEnd(setupS/setupRef.slowdown()), spec.EndToEnd
		o.note("machine reference: a slice took %.1f ms between the rounds and %.1f ms between the set-ups (nominal %.1f); as the clock read them, ops_per_s %.6g and setup_s %.6g",
			median(o.ref.ms), median(setupRef.ms), refNominalMs, median(o.rates), setupS)
	} else {
		tr := newTracer()
		layer := map[string]float64{}
		e, err := setupLayers(p, tr, layer)
		if err != nil {
			return err
		}
		if o, err = w.trace(ctx, e, p, tr); err != nil {
			return err
		}
		for k, v := range layer {
			o.layer[k] = v
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		o.layer["runtime.gc_cpu_frac"] = ms.GCCPUFraction
		o.layer["runtime.peak_heap_mb"] = float64(ms.HeapSys) / (1 << 20)
		values, declared = o.layer, spec.PerLayer
		dir := filepath.Join(buildDir, "trace", w.name)
		if err := writeTrace(dir, tr, declared, values); err != nil {
			return err
		}
		o.note("spans and the layer table are in %s", dir)
	}
	res, err := buildResult(o, declared, values)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s, seed %d, sized for %d s, trace %d\n", w.name, seed, seconds, trace)
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	if trace == 0 {
		fmt.Printf("  per-round ops/s as the clock read them: %.0f\n", o.rates)
	}
	fmt.Print(metricTable(declared, values))
	fmt.Printf("checks: %d attempted, %d failed\n", o.checks.attempted, o.checks.failed)
	for _, m := range o.checks.msgs {
		fmt.Println("  FAILED " + m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if o.checks.failed > 0 {
		return fmt.Errorf("%s: %d of %d output checks failed", w.name, o.checks.failed, o.checks.attempted)
	}
	return nil
}

// scratchDir makes this process's scratch directory inside the
// checkout.
func scratchDir() (string, error) {
	root := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-*")
}

// buildResult lays the measured values over the declared metric list.
// A declared per-layer metric the workload never touched reads 0 (the
// layer was idle); a value nobody declared is an error, so the code
// and BENCHMARK.json cannot drift apart.
func buildResult(o *outcome, declared []metricDef, values map[string]float64) (*result, error) {
	known := map[string]bool{}
	res := &result{
		Correct: o.checks.failed == 0, Attempted: o.checks.attempted, Failed: o.checks.failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range declared {
		known[d.Name] = true
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	var stray []string
	for name := range values {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics %v are not declared in %s", stray, specFile)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no output check ran")
	}
	return res, nil
}

func metricTable(declared []metricDef, values map[string]float64) string {
	var b strings.Builder
	for _, d := range declared {
		fmt.Fprintf(&b, "  %-34s %16.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	return b.String()
}

// writeTrace writes spans.jsonl and the layer table of a traced run.
func writeTrace(dir string, tr *tracer, declared []metricDef, values map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.writeSpans(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	table := "per-layer metrics\n" + metricTable(declared, values) + "\nspan aggregates (every span, sampled into spans.jsonl or not)\n" + tr.aggTable()
	return os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(table), 0o644)
}
