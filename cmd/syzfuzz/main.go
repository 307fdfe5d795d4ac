// Command syzfuzz runs a fuzzing campaign against the virtual kernel
// with a chosen specification suite. Campaigns run through the
// sharded parallel fuzzer: -shards sizes the worker pool, and the
// merged coverage/crash results are identical for any shard count.
// Crash repros are triaged (minimized) at discovery time and printed
// with the crash summary; throughput is reported as execs/sec.
// Ctrl-C cancels a campaign and prints the partial results: no further
// work unit starts, the running ones stop, and the campaign still
// delivers its last counters to the hub (bounded by a short grace, so
// the lease is released instead of timing out) and flushes the corpus
// store. The first Ctrl-C also restores the default signal handling,
// so a second one during that wind-down kills the process.
//
// Usage:
//
//	syzfuzz -suite kernelgpt -execs 50000 -shards 8
//	syzfuzz -suite syzkaller -reps 3
//	syzfuzz -suite syzdescribe
//	syzfuzz -suite oracle -handler dm     # ground-truth spec, one driver
//
// Campaigns can persist their evolved corpus: -corpus DIR warm-starts
// from the store in DIR (empty on the first run) and flushes the
// evolved corpus back; -resume additionally requires the store to
// already hold seeds (guarding against a mistyped path silently cold-
// starting); -checkpoint flushes at shard-unit boundaries so a killed
// campaign retains progress. With -reps > 1 the repetitions run in
// sequence and accumulate into the same store.
//
//	syzfuzz -suite oracle -execs 50000 -corpus /tmp/corpus
//	syzfuzz -suite oracle -execs 10000 -corpus /tmp/corpus -resume
//
// Campaigns can also pool with other workers through a coordination
// hub (cmd/syzhub): -hub URL registers the campaign, pushes its
// corpus/coverage/crash deltas at checkpoint boundaries, and imports
// the merged global corpus back. -stats-json FILE writes the final
// merged stats in the hub wire schema for scripting.
//
//	syzfuzz -suite oracle -execs 25000 -hub http://127.0.0.1:7700
//	syzfuzz -suite oracle -execs 5000 -stats-json results.json
//
// For capacity planning, -trace FILE appends every progress update as
// a JSON line (exec count, union coverage, wall-clock offset) — the
// yield-curve input of `syzplan fit` — and -shard-execs pins the work
// unit grain so a recorded run's decomposition can be replayed by the
// simulator.
//
//	syzfuzz -suite oracle -execs 30000 -shards 3 -shard-execs 2048 \
//	    -trace trace.jsonl -stats-json stats.json
//
// Observability: -metrics-addr HOST:PORT serves the campaign's live
// Prometheus metrics (execs, coverage, crashes, exec/triage/sync
// latency histograms) as a sidecar; -flight-record DIR keeps a
// bounded ring of recent telemetry events and dumps it to DIR on
// every crash, so each report carries the engine activity leading up
// to it. Both are off by default and cost nothing when off.
//
//	syzfuzz -suite oracle -execs 50000 \
//	    -metrics-addr 127.0.0.1:7071 -flight-record /tmp/flight
//
// -cpuprofile / -memprofile write runtime/pprof profiles of the
// campaign. The checked-in default.pgo at the module root was
// produced with exactly:
//
//	go run ./cmd/syzfuzz -suite oracle -plumbing -execs 400000 -reps 1 \
//	    -seed 1 -cpuprofile default.pgo
//
// and rebuilt binaries pick it up via `go build -pgo=default.pgo`
// (see README "Compiled execution & PGO" for the re-baseline
// workflow).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"kernelgpt/internal/baseline"
	"kernelgpt/internal/core"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/engine"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/hub"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/sim"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/telemetry"
	"kernelgpt/internal/vkernel"
)

func main() {
	suite := flag.String("suite", "kernelgpt", "spec suite: syzkaller, syzdescribe, kernelgpt, oracle")
	handler := flag.String("handler", "", "restrict to one handler's spec (oracle/kernelgpt suites)")
	execs := flag.Int("execs", 20000, "execution budget per repetition")
	reps := flag.Int("reps", 3, "repetitions")
	seed := flag.Int64("seed", 1, "base seed")
	scale := flag.Float64("scale", 1.0, "corpus scale")
	model := flag.String("model", "gpt-4", "analysis model for the kernelgpt suite")
	shards := flag.Int("shards", 1, "fuzzing worker shards per repetition (results are shard-count-invariant)")
	shardExecs := flag.Int("shard-execs", 0, "executions per shard work unit (0 = scale with the budget)")
	progress := flag.Bool("progress", false, "print shard progress as campaigns run")
	tracePath := flag.String("trace", "", "append each progress update as a JSON line to FILE (the trace `syzplan fit` consumes; implies periodic updates)")
	repro := flag.String("repro", "", "replay (and minimize) a serialized repro file instead of fuzzing")
	plumbing := flag.Bool("plumbing", false, "merge the fd-plumbing/mmap surface (dup, pipe, epoll, mmap/munmap) into the suite")
	uniform := flag.Bool("uniform", false, "disable the adaptive operator scheduler (uniform-random operator selection)")
	opstats := flag.Bool("opstats", false, "print the per-operator mutation scheduler outcome")
	corpusDir := flag.String("corpus", "", "persistent corpus store directory: warm-start from it and flush the evolved corpus back")
	resume := flag.Bool("resume", false, "require the -corpus store to already hold seeds (fail instead of silently cold-starting)")
	checkpoint := flag.Bool("checkpoint", false, "flush the corpus store at shard-unit boundaries, not only at campaign end")
	hubURL := flag.String("hub", "", "coordination hub base URL (e.g. http://127.0.0.1:7700): sync corpus/coverage/crashes at checkpoint boundaries")
	hubName := flag.String("hub-name", "", "worker label in the hub's stats (default hostname:pid)")
	statsJSON := flag.String("stats-json", "", "write the final merged stats as JSON to FILE (the hub wire schema; \"-\" = stdout)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics on HOST:PORT as a campaign sidecar (e.g. 127.0.0.1:7071)")
	flightDir := flag.String("flight-record", "", "crash flight recorder: dump the last telemetry events to DIR on each crash")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to FILE (the PGO input; see README \"Compiled execution & PGO\")")
	memProfile := flag.String("memprofile", "", "write an allocation profile to FILE at exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop) // a second Ctrl-C is no longer caught

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			mf, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer mf.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	c := corpus.Build(corpus.Config{Scale: *scale})
	kernel := vkernel.New(c)
	spec := buildSuite(ctx, c, *suite, *handler, *model, uint64(*seed))
	if spec == nil || len(spec.Syscalls) == 0 {
		fmt.Fprintln(os.Stderr, "empty suite")
		os.Exit(2)
	}
	if *plumbing {
		if *handler != "" {
			pf, err := c.PlumbingSpecFor(*handler)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			spec = syzlang.MergeDedup(spec, pf)
		} else {
			spec = syzlang.MergeDedup(spec, c.PlumbingSuite())
		}
	}
	if errs := syzlang.Validate(spec, c.Env()); len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "suite invalid: %v\n", errs[0])
		os.Exit(2)
	}
	tgt, err := prog.Compile(spec, c.Env())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("suite %q: %d syscalls; kernel %s\n", *suite, len(tgt.Syscalls), kernel)

	if *repro != "" {
		replay(c, kernel, tgt, *repro)
		return
	}

	if *resume && *corpusDir == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -corpus DIR")
		os.Exit(2)
	}
	if *resume {
		st, err := corpusstore.Open(*corpusDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		m, err := st.Manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if len(m.Seeds) == 0 {
			fmt.Fprintf(os.Stderr, "-resume: corpus store %s holds no seeds\n", *corpusDir)
			os.Exit(2)
		}
	}

	f := fuzz.New(tgt, kernel)
	var statsList []*fuzz.Stats
	var elapsed []time.Duration
	var traceEnc *json.Encoder
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer tf.Close()
		traceEnc = json.NewEncoder(tf)
	}
	// One clock for every observability surface — campaign Elapsed, the
	// -trace stream, metrics histograms, and flight-dump stamps all
	// derive their time from the same injected source.
	var clk telemetry.Clock
	var metrics *fuzz.Metrics
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		metrics = fuzz.NewMetrics(reg)
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer ln.Close()
		go http.Serve(ln, telemetry.Handler(reg))
		fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics\n", ln.Addr())
	}
	var flight *telemetry.FlightRecorder
	if *flightDir != "" {
		flight = telemetry.NewFlightRecorder(*flightDir, 256, clk)
		fmt.Fprintf(os.Stderr, "flight recorder: dumping to %s on crash\n", *flightDir)
	}
	start := clk.Now()
	for i := 0; i < *reps; i++ {
		cfg := fuzz.DefaultConfig(*execs, fuzz.RepSeed(*seed, i))
		cfg.UniformOps = *uniform
		cfg.ShardExecs = *shardExecs
		cfg.CorpusDir = *corpusDir
		cfg.Checkpoint = *checkpoint
		cfg.Clock = clk
		cfg.Metrics = metrics
		cfg.Flight = flight
		if *hubURL != "" {
			// One registration per repetition: each rep is an
			// independent campaign whose counters restart from zero,
			// so reusing a client would make the hub see regressing
			// stats and stale crash deltas.
			cl, err := dialHub(ctx, *hubURL, *hubName, i, *reps, tgt)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			cfg.Hub = cl
		}
		if *corpusDir != "" {
			cfg.StoreReport = func(r corpusstore.Report) {
				fmt.Fprintln(os.Stderr, r.String())
			}
		}
		if *progress || traceEnc != nil {
			rep := i + 1
			printUpdates := *progress
			cfg.Progress = func(p fuzz.Progress) {
				if printUpdates {
					fmt.Fprintf(os.Stderr, "rep %d: shard %d/%d, %d execs, cov=%d crashes=%d\n",
						rep, p.ShardsDone, p.ShardsTotal, p.Execs, p.Cover, p.Crashes)
				}
				if traceEnc != nil {
					// Progress callbacks are serialized by the fuzzer,
					// so the trace file needs no extra locking.
					traceEnc.Encode(sim.TracePoint{
						Rep: rep, ElapsedNs: p.ElapsedNs,
						Execs: p.Execs, Cover: p.Cover, Crashes: p.Crashes,
					})
				}
			}
		}
		repStart := clk.Now()
		s, err := f.RunParallel(ctx, cfg, *shards)
		// s is nil only for pre-campaign failures (e.g. an unusable
		// corpus store); cancellation still yields partial stats.
		if s != nil {
			elapsed = append(elapsed, clk.Now().Sub(repStart))
			statsList = append(statsList, s)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign interrupted: %v\n", err)
			break
		}
	}
	totalExecs := 0
	for i, s := range statsList {
		fmt.Printf("rep %d: cov=%d crashes=%d corpus=%d (%.0f execs/sec)\n",
			i+1, s.CoverCount(), s.UniqueCrashes(), s.CorpusSize, execRate(s.Execs, elapsed[i]))
		totalExecs += s.Execs
	}
	fmt.Printf("mean cov=%.1f mean crashes=%.1f throughput=%.0f execs/sec\n",
		fuzz.MeanCover(statsList), fuzz.MeanCrashes(statsList),
		execRate(totalExecs, clk.Now().Sub(start)))
	if *statsJSON != "" {
		if err := writeStatsJSON(*statsJSON, statsList); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *opstats {
		printOpStats(statsList)
	}
	titles := fuzz.UnionCrashTitles(statsList)
	if len(titles) > 0 {
		fmt.Println("crashes:")
		for _, s := range statsList {
			for _, title := range s.CrashTitles() {
				if titles[title] {
					titles[title] = false
					cr := s.Crashes[title]
					fmt.Printf("  %s (first at exec %d, %d hits)\n", title, cr.FirstExec, cr.Count)
					fmt.Println("  minimized repro:")
					for _, line := range strings.Split(strings.TrimRight(cr.Repro, "\n"), "\n") {
						fmt.Printf("    %s\n", line)
					}
				}
			}
		}
	}
}

// printOpStats renders the mutation-operator outcome merged across
// repetitions: picks, new-coverage yield, and yield per 1k picks.
func printOpStats(statsList []*fuzz.Stats) {
	merged := map[string]*fuzz.OpStat{}
	var order []string
	for _, s := range statsList {
		for _, op := range s.Ops {
			m := merged[op.Name]
			if m == nil {
				m = &fuzz.OpStat{Name: op.Name}
				merged[op.Name] = m
				order = append(order, op.Name)
			}
			m.Picks += op.Picks
			m.NewBlocks += op.NewBlocks
		}
	}
	fmt.Println("operator        picks  new-blocks  yield/1k")
	for _, name := range order {
		m := merged[name]
		yield := 0.0
		if m.Picks > 0 {
			yield = 1000 * float64(m.NewBlocks) / float64(m.Picks)
		}
		fmt.Printf("%-14s %6d  %10d  %8.1f\n", m.Name, m.Picks, m.NewBlocks, yield)
	}
}

// dialHub registers one repetition's worker with the hub, labeling it
// name/repN when several repetitions share a run.
func dialHub(ctx context.Context, url, name string, rep, reps int, tgt *prog.Target) (*hub.Client, error) {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if reps > 1 {
		name = fmt.Sprintf("%s/rep%d", name, rep+1)
	}
	cl, err := hub.Dial(ctx, url, name, tgt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "hub %s: registered as %s (%d seeds pooled)\n", url, cl.WorkerID(), cl.HubSeeds)
	if fp := hub.Fingerprint(tgt); fp != cl.HubFingerprint {
		fmt.Fprintf(os.Stderr, "hub note: suite fingerprint %s differs from hub's %s; seeds outside the shared surface are skipped on each side\n",
			fp, cl.HubFingerprint)
	}
	return cl, nil
}

// writeStatsJSON dumps the run's per-rep and merged stats in the hub
// wire schema (hub.CampaignDump), to a file or stdout ("-").
func writeStatsJSON(path string, statsList []*fuzz.Stats) error {
	data, err := json.MarshalIndent(hub.DumpStats(statsList), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// execRate converts a campaign's budget and wall time to execs/sec.
func execRate(execs int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(execs) / d.Seconds()
}

// replay deserializes a repro, executes it, and prints the minimized
// form if it crashes.
func replay(c *corpus.Corpus, kernel *vkernel.Kernel, tgt *prog.Target, path string) {
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
	vm := kernel.NewVM()
	res := vm.Run(p)
	if res.Crash == nil {
		fmt.Printf("no crash; %d blocks covered\n", len(res.Cov))
		return
	}
	fmt.Printf("crash reproduced: %s\n", res.Crash.Title)
	min := seedpool.Minimize(vm, p, res.Crash.Title)
	fmt.Printf("minimized repro (%d calls):\n%s", len(min.Calls), min.Serialize())
}

func buildSuite(ctx context.Context, c *corpus.Corpus, suite, handler, model string, seed uint64) *syzlang.File {
	switch suite {
	case "syzkaller":
		return c.ExistingSuite()
	case "syzdescribe":
		g := baseline.New(c)
		results := g.GenerateAll(c.Incomplete(corpus.KindDriver))
		return syzlang.MergeDedup(c.ExistingSuite(), baseline.MergeSpecs(results))
	case "kernelgpt":
		eng := engine.New(c,
			engine.WithClient(llm.NewSim(model, seed)),
			engine.WithWorkers(4),
			engine.WithCache(4096))
		if handler != "" {
			h := c.Handler(handler)
			if h == nil {
				return nil
			}
			res := eng.GenerateFor(ctx, h)
			return core.MergeSpecs([]*core.Result{res})
		}
		_, _, merged, err := eng.Suite(ctx)
		if err != nil {
			return nil
		}
		return syzlang.MergeDedup(c.ExistingSuite(), merged)
	case "oracle":
		if handler != "" {
			h := c.Handler(handler)
			if h == nil {
				return nil
			}
			return c.FamilySpec(h, corpus.OracleSpec)
		}
		// Root families in corpus order: syscall order drives campaigns.
		files := []*syzlang.File{}
		for _, h := range c.Handlers {
			if h.Loaded && h.Parent == "" {
				files = append(files, c.FamilySpec(h, corpus.OracleSpec))
			}
		}
		return syzlang.MergeDedup(files...)
	}
	return nil
}
