// Command syzplan is the campaign capacity planner built on
// internal/sim: fit a cost + coverage-yield model from the system's
// own telemetry, then answer fleet-sizing questions in milliseconds
// instead of CPU-hours.
//
// Subcommands:
//
//	syzplan fit -trace trace.jsonl -stats stats.json \
//	    -hub-stats hub.json -workers 3 -shard-execs 2048 -o model.json
//	  Fit the yield curve from a syzfuzz -trace Progress stream and the
//	  cost coefficients from the same run's timing stats (syzfuzz
//	  -stats-json, plus the hub's /v1/stats for hub-side sync service
//	  times).
//
//	syzplan run -model model.json -workers 8 -execs 200000 [-hub] [-json]
//	  Simulate one fleet configuration. With -target-cover and
//	  -deadline instead of -execs, answer the planner query "min
//	  workers to reach the target by the deadline".
//
//	syzplan sweep -model model.json -execs 200000 \
//	    -workers 1,2,4,8,16 -shard-execs 1024,2048,4096 [-json]
//	  Simulate the cross product of worker counts, shard grains, and
//	  hub attachment, and print a comparison table.
//
//	syzplan validate -model model.json -stats stats.json \
//	    -hub-stats hub.json -workers 3 -shard-execs 2048 [-json]
//	  Score the model against a real recorded run; exits 1 when a
//	  prediction error exceeds its tolerance (the CI drift gate).
//
// Everything is deterministic for fixed inputs: the same model, trace,
// and flags always print the same predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"kernelgpt/internal/hub"
	"kernelgpt/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "fit":
		err = cmdFit(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "syzplan: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "syzplan %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: syzplan <fit|run|sweep|validate> [flags]  (syzplan <sub> -h for flags)")
}

// runFlags are the campaign-shape flags shared by fit and validate
// (the recorded run's configuration, which the stats dump does not
// carry).
type runFlags struct {
	stats      *string
	hubStats   *string
	workers    *int
	shardExecs *int
	seed       *int64
}

func addRunFlags(fs *flag.FlagSet) runFlags {
	return runFlags{
		stats:      fs.String("stats", "", "syzfuzz -stats-json output of the recorded run"),
		hubStats:   fs.String("hub-stats", "", "hub /v1/stats JSON of the recorded run (hub-side sync service times)"),
		workers:    fs.Int("workers", 1, "worker (shard) count of the recorded run"),
		shardExecs: fs.Int("shard-execs", 0, "shard grain of the recorded run (0 = fuzzer default rule)"),
		seed:       fs.Int64("seed", 1, "seed of the recorded run"),
	}
}

// loadRecord assembles a sim.RunRecord from the stats dump plus the
// hub stats document. Multi-rep dumps are rejected: a record is one
// campaign's ground truth.
func (rf runFlags) loadRecord() (sim.RunRecord, error) {
	var rec sim.RunRecord
	data, err := os.ReadFile(*rf.stats)
	if err != nil {
		return rec, err
	}
	var dump hub.CampaignDump
	if err := json.Unmarshal(data, &dump); err != nil {
		return rec, fmt.Errorf("%s: %w", *rf.stats, err)
	}
	if len(dump.Reps) != 1 {
		return rec, fmt.Errorf("%s: need exactly 1 repetition, got %d (record one campaign per run)", *rf.stats, len(dump.Reps))
	}
	r := dump.Reps[0]
	rec = sim.RunRecord{
		Workers: *rf.workers, ShardExecs: *rf.shardExecs, Seed: *rf.seed,
		Hub:   r.Syncs > 0,
		Execs: r.Execs, Cover: r.Cover, Crashes: len(r.Crashes),
		ElapsedNs: r.ElapsedNs, WorkNs: r.WorkNs,
		SyncNs: r.SyncNs, Syncs: r.Syncs,
	}
	if rec.ElapsedNs <= 0 {
		return rec, fmt.Errorf("%s: no timing fields (produced by an older syzfuzz?)", *rf.stats)
	}
	if *rf.hubStats != "" {
		hdata, err := os.ReadFile(*rf.hubStats)
		if err != nil {
			return rec, err
		}
		var hs hub.HubStats
		if err := json.Unmarshal(hdata, &hs); err != nil {
			return rec, fmt.Errorf("%s: %w", *rf.hubStats, err)
		}
		if hs.Sync.Count > 0 {
			rec.HubServiceNsMean = hs.Sync.MeanServiceNs()
			rec.BytesPerSync = hs.Sync.MeanBytes()
		}
		// Per-worker aggregates are the sample points for splitting hub
		// service time into base + per-byte (sim.Calibrate runs the
		// regression when at least two payload sizes differ).
		for _, wk := range hs.Workers {
			if wk.Sync.Count == 0 {
				continue
			}
			rec.WorkerSyncs = append(rec.WorkerSyncs, sim.SyncSample{
				Count:         wk.Sync.Count,
				MeanBytes:     wk.Sync.MeanBytes(),
				MeanServiceNs: wk.Sync.MeanServiceNs(),
			})
		}
	}
	return rec, nil
}

func cmdFit(args []string) error {
	fs := flag.NewFlagSet("fit", flag.ExitOnError)
	trace := fs.String("trace", "", "syzfuzz -trace Progress stream (JSON lines) for the yield curve")
	out := fs.String("o", "model.json", "output model file")
	rf := addRunFlags(fs)
	fs.Parse(args)
	if *trace == "" || *rf.stats == "" {
		return fmt.Errorf("need -trace and -stats")
	}
	rec, err := rf.loadRecord()
	if err != nil {
		return err
	}
	if rec.WorkNs <= 0 {
		return fmt.Errorf("%s: no work time to fit the per-exec cost from", *rf.stats)
	}
	pts, err := sim.ReadTraceFile(*trace)
	if err != nil {
		return err
	}
	yield, err := sim.FitYield(pts)
	if err != nil {
		return err
	}
	m := &sim.Model{Yield: yield, FittedFrom: fmt.Sprintf("trace=%s calibrated=%s", *trace, *rf.stats)}
	m.Calibrate(rec)
	if err := m.Save(*out); err != nil {
		return err
	}
	fmt.Printf("model written to %s\n", *out)
	fmt.Printf("  per-exec: step=%s\n", ns(m.Cost.StepNs))
	fmt.Printf("  sync: base=%s hub-service=%s", ns(m.Cost.SyncBaseNs), ns(m.Cost.HubServiceNs))
	if m.Cost.HubPerByteNs > 0 {
		fmt.Printf(" +%.2fns/B × %.0fB", m.Cost.HubPerByteNs, m.BytesPerSync)
	}
	fmt.Println()
	fmt.Printf("  yield: Cmax=%.0f K=%.0f B=%.2f (trace: %d points)\n",
		m.Yield.Cmax, m.Yield.K, m.Yield.B, len(pts))
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	model := fs.String("model", "model.json", "fitted model file")
	workers := fs.Int("workers", 1, "worker count")
	execs := fs.Int("execs", 0, "execution budget")
	shardExecs := fs.Int("shard-execs", 0, "shard grain (0 = fuzzer default rule)")
	deadline := fs.Duration("deadline", 0, "wall-clock horizon (truncates the budget; with -target-cover, the planning deadline)")
	hubOn := fs.Bool("hub", false, "attach the fleet to a hub")
	checkpoint := fs.Bool("checkpoint", false, "checkpoint the corpus at unit boundaries")
	seed := fs.Int64("seed", 1, "jitter seed")
	targetCover := fs.Int("target-cover", 0, "planner query: min workers to reach this many blocks by -deadline")
	maxWorkers := fs.Int("max-workers", 64, "search ceiling for -target-cover")
	asJSON := fs.Bool("json", false, "JSON output")
	fs.Parse(args)
	m, err := sim.LoadModel(*model)
	if err != nil {
		return err
	}
	base := sim.FleetConfig{
		Workers: *workers, Execs: *execs, ShardExecs: *shardExecs,
		Hub: *hubOn, Checkpoint: *checkpoint, Seed: *seed,
	}
	if *targetCover > 0 {
		if *deadline <= 0 {
			return fmt.Errorf("-target-cover needs -deadline")
		}
		plan, err := sim.MinWorkers(m, base, *targetCover, deadline.Nanoseconds(), *maxWorkers)
		if err != nil {
			return err
		}
		if *asJSON {
			return printJSON(plan)
		}
		if !plan.Feasible {
			fmt.Printf("infeasible: %d blocks by %v (curve asymptote %.0f, needs %d execs, searched ≤%d workers)\n",
				*targetCover, *deadline, m.Yield.Cmax, plan.ExecsNeeded, *maxWorkers)
			return nil
		}
		fmt.Printf("min workers: %d  (%d execs, predicted %s wall, cover %d)\n",
			plan.Workers, plan.ExecsNeeded, dur(plan.Result.WallNs), plan.Result.Cover)
		return nil
	}
	if *execs <= 0 {
		return fmt.Errorf("need -execs (or a -target-cover query)")
	}
	base.DeadlineNs = deadline.Nanoseconds()
	r, err := sim.Simulate(m, base)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(r)
	}
	printResultTable([]sim.Result{r})
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	model := fs.String("model", "model.json", "fitted model file")
	execs := fs.Int("execs", 0, "execution budget for every config")
	workers := fs.String("workers", "1,2,4,8", "comma-separated worker counts")
	shardExecs := fs.String("shard-execs", "0", "comma-separated shard grains (0 = fuzzer default rule)")
	hubMode := fs.String("hub", "both", "hub attachment: on, off, or both")
	seed := fs.Int64("seed", 1, "jitter seed")
	asJSON := fs.Bool("json", false, "JSON output")
	fs.Parse(args)
	m, err := sim.LoadModel(*model)
	if err != nil {
		return err
	}
	if *execs <= 0 {
		return fmt.Errorf("need -execs")
	}
	ws, err := intList(*workers)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	grains, err := intList(*shardExecs)
	if err != nil {
		return fmt.Errorf("-shard-execs: %w", err)
	}
	var hubs []bool
	switch *hubMode {
	case "on":
		hubs = []bool{true}
	case "off":
		hubs = []bool{false}
	case "both":
		hubs = []bool{false, true}
	default:
		return fmt.Errorf("-hub must be on, off, or both")
	}
	var cfgs []sim.FleetConfig
	for _, w := range ws {
		for _, g := range grains {
			for _, h := range hubs {
				cfgs = append(cfgs, sim.FleetConfig{
					Workers: w, Execs: *execs, ShardExecs: g, Hub: h, Seed: *seed,
				})
			}
		}
	}
	start := time.Now()
	results, err := sim.Sweep(m, cfgs)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if *asJSON {
		return printJSON(struct {
			Configs int          `json:"configs"`
			SweepNs int64        `json:"sweep_ns"`
			Results []sim.Result `json:"results"`
		}{len(cfgs), elapsed.Nanoseconds(), results})
	}
	printResultTable(results)
	fmt.Printf("%d configs swept in %v\n", len(cfgs), elapsed)
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	model := fs.String("model", "model.json", "fitted model file")
	execTol := fs.Float64("exec-tol", sim.DefaultExecTol, "relative exec prediction tolerance")
	coverTol := fs.Float64("cover-tol", sim.DefaultCoverTol, "relative cover prediction tolerance")
	wallTol := fs.Float64("wall-tol", sim.DefaultWallTol, "relative wall-clock prediction tolerance")
	asJSON := fs.Bool("json", false, "JSON output")
	rf := addRunFlags(fs)
	fs.Parse(args)
	if *rf.stats == "" {
		return fmt.Errorf("need -stats")
	}
	m, err := sim.LoadModel(*model)
	if err != nil {
		return err
	}
	rec, err := rf.loadRecord()
	if err != nil {
		return err
	}
	v, err := sim.Validate(m, rec, *execTol, *coverTol, *wallTol)
	if err != nil {
		return err
	}
	if *asJSON {
		if err := printJSON(v); err != nil {
			return err
		}
	} else {
		fmt.Printf("real:      execs=%-8d cover=%-6d wall=%s\n", rec.Execs, rec.Cover, dur(rec.ElapsedNs))
		fmt.Printf("predicted: execs=%-8d cover=%-6d wall=%s\n", v.PredExecs, v.PredCover, dur(v.PredWallNs))
		fmt.Printf("errors:    execs=%.1f%% (tol %.0f%%)  cover=%.1f%% (tol %.0f%%)  wall=%.1f%% (tol %.0f%%)\n",
			100*v.ExecErr, 100*v.ExecTol, 100*v.CoverErr, 100*v.CoverTol, 100*v.WallErr, 100*v.WallTol)
	}
	if !v.Pass {
		return fmt.Errorf("model drifted from reality: %s", strings.Join(v.Failures, "; "))
	}
	if !*asJSON {
		fmt.Println("PASS")
	}
	return nil
}

func printResultTable(results []sim.Result) {
	fmt.Println("workers  grain  hub  execs     wall       cover  util   syncs  hub-busy")
	for _, r := range results {
		hubCol := "-"
		if r.Config.Hub {
			hubCol = "yes"
		}
		wall := dur(r.WallNs)
		if r.Truncated {
			wall += "*"
		}
		fmt.Printf("%7d  %5d  %-3s  %-8d  %-9s  %-5d  %4.0f%%  %5d  %s\n",
			r.Config.Workers, r.Config.ShardExecs, hubCol, r.Execs, wall,
			r.Cover, 100*r.Utilization(), r.Syncs, dur(r.HubBusyNs))
	}
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func intList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// ns renders a nanosecond coefficient human-readably.
func ns(v float64) string { return time.Duration(v).String() }

// dur renders an int64 nanosecond count.
func dur(v int64) string { return time.Duration(v).Round(time.Millisecond).String() }
