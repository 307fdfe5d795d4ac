package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/engine"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/vkernel"
)

// The self-tests run every workload at corpus.TestConfig's scale with
// about 2000 execs, so the whole file stays within a few seconds.

var (
	tinyOnce sync.Once
	tinyEnv  *env
	tinyErr  error
)

func testEnv(t *testing.T) (*env, params) {
	t.Helper()
	scale := corpus.TestConfig().Scale
	tinyOnce.Do(func() { tinyEnv, tinyErr = buildEnv(scale, nil) })
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyEnv, params{seed: 1, seconds: 1, scale: scale, tiny: true, procs: 2, tmp: t.TempDir()}
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%s names %d workloads, the harness has %d", specFile, len(spec.Workloads), len(workloads))
	}
	e, p := testEnv(t)
	ctx := context.Background()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in %s and %q in the harness", i, spec.Workloads[i].Name, specFile, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			o, err := w.run(ctx, e, p)
			if err != nil {
				t.Fatal(err)
			}
			values := o.endToEnd(0.1)
			res, err := buildResult(o, spec.EndToEnd, values)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("untraced run failed %d of %d checks: %v", res.Failed, res.Attempted, o.checks.msgs)
			}
			for _, d := range spec.EndToEnd {
				if _, ok := values[d.Name]; !ok {
					t.Errorf("end-to-end metric %s is declared and not emitted", d.Name)
				}
			}
			for _, name := range []string{"ops_per_s", "alloc_kb_per_op", "allocs_per_op", "cover_blocks"} {
				if values[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, values[name])
				}
			}

			tr := newTracer()
			o, err = w.trace(ctx, e, p, tr)
			if err != nil {
				t.Fatal(err)
			}
			res, err = buildResult(o, spec.PerLayer, o.layer)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("traced run failed %d of %d checks: %v", res.Failed, res.Attempted, o.checks.msgs)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reports %d metrics, %d are declared", len(res.Metrics), len(spec.PerLayer))
			}
			if len(o.layer) == 0 {
				t.Error("traced run measured no layer")
			}
		})
	}
}

func TestBuildResultRejectsUndeclaredMetric(t *testing.T) {
	o := newOutcome()
	o.checks.ok(true, "")
	declared := []metricDef{{Name: "a", Unit: "ms"}}
	if _, err := buildResult(o, declared, map[string]float64{"a": 1, "b": 2}); err == nil {
		t.Error("a value with no declared metric was accepted")
	}
	res, err := buildResult(o, declared, map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := res.Metrics["a"]; !ok || m.Value != 0 || m.Unit != "ms" {
		t.Errorf("an idle declared metric reads %+v, want 0 ms", m)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{n: 9, limit: 95, want: 50},
		{n: 20, limit: 95, want: 50},
		{n: 40, limit: 95, want: 75},
		{n: 100, limit: 95, want: 90},
		{n: 199, limit: 95, want: 90},
		{n: 200, limit: 95, want: 95},
		{n: 200, limit: 99.9, want: 95},
		{n: 1000, limit: 99.9, want: 99},
		{n: 10000, limit: 99.9, want: 99.9},
		{n: 10000, limit: 95, want: 95},
	} {
		if got := tailPercentile(tc.n, tc.limit); got != tc.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", tc.n, tc.limit, got, tc.want)
		}
	}
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	p, v := tail(vals, 95)
	if beyond := 200 - int(v); p != 95 || beyond < 10 {
		t.Errorf("tail of 1..200 = p%g at %g with %d samples beyond", p, v, beyond)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q2, q3 := quartiles(vals)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g, want 1 2 4", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	clock := int64(0)
	tr := &tracer{now: func() int64 { return clock }, agg: map[string]*spanAgg{}}
	tk := tr.track(7, 0)
	tk.begin("outer") // 0..100
	clock = 10
	tk.begin("inner") // 10..40
	clock = 20
	tk.begin("leaf") // 20..25
	clock = 25
	tk.end()
	clock = 40
	tk.end()
	clock = 50
	tk.sample = false
	tk.begin("inner") // 50..70, aggregated and not logged
	clock = 70
	tk.end()
	tk.sample = true
	clock = 100
	if d := tk.end(); d != 100 {
		t.Errorf("outer lasted %d, want 100", d)
	}
	tk.close()

	for name, want := range map[string]spanAgg{
		"outer": {Count: 1, Total: 100, Self: 50},
		"inner": {Count: 2, Total: 50, Self: 45},
		"leaf":  {Count: 1, Total: 5, Self: 5},
	} {
		if got := tr.get(name); got != want {
			t.Errorf("%s aggregate = %+v, want %+v", name, got, want)
		}
	}
	if len(tr.spans) != 3 {
		t.Fatalf("span log holds %d spans, want 3 (one inner span was sampled out)", len(tr.spans))
	}
	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.Name] = s
		if s.Round != 7 {
			t.Errorf("span %s is in round %d, want 7", s.Name, s.Round)
		}
	}
	if byName["outer"].Parent != 0 || byName["inner"].Parent != byName["outer"].ID || byName["leaf"].Parent != byName["inner"].ID {
		t.Errorf("parents are wrong: %+v", tr.spans)
	}

	// A child on another track: its parent is the span that caused it,
	// and its time comes off that span's self time.
	remote := tr.track(7, byName["outer"].ID)
	remote.begin("served")
	clock = 130
	dur := remote.end()
	remote.close()
	tr.chargeChild("outer", dur)
	if got := tr.get("outer").Self; got != 20 {
		t.Errorf("outer self after a 30 ns remote child = %d, want 20", got)
	}
	if s := tr.spans[len(tr.spans)-1]; s.Name != "served" || s.Parent != byName["outer"].ID {
		t.Errorf("remote span = %+v, want parent %d", s, byName["outer"].ID)
	}

	var nilTrack *track
	nilTrack.begin("x")
	if nilTrack.end() != 0 || nilTrack.current() != 0 {
		t.Error("a nil track must record nothing")
	}
}

// crashingCampaign runs deep campaigns until one reports a crash; the
// deep target's planted bugs fire within a few thousand execs.
func crashingCampaign(t *testing.T, e *env) (*fuzz.Stats, int) {
	t.Helper()
	const budget = 4000
	st, err := fuzz.New(e.deep, e.kernel).RunContext(context.Background(), fuzz.DefaultConfig(budget, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Crashes) == 0 {
		t.Fatal("no crash in 4000 execs on the deep target: the injected-fault tests would pass vacuously")
	}
	return st, budget
}

func TestCampaignCheckCatchesBadResults(t *testing.T) {
	e, _ := testEnv(t)
	st, budget := crashingCampaign(t, e)
	var c checks
	checkCampaign(&c, "good", e.deep, e.kernel, st, nil, budget)
	if c.failed != 0 || c.attempted < 3 {
		t.Fatalf("a good campaign failed %d of %d checks: %v", c.failed, c.attempted, c.msgs)
	}

	title := st.CrashTitles()[0]
	st.Crashes["BUG: not the crash this repro hits"] = st.Crashes[title]
	c = checks{}
	checkCampaign(&c, "wrong title", e.deep, e.kernel, st, nil, budget)
	if c.failed != 1 {
		t.Errorf("a repro filed under a wrong crash title failed %d checks, want 1: %v", c.failed, c.msgs)
	}
	delete(st.Crashes, "BUG: not the crash this repro hits")

	c = checks{}
	checkCampaign(&c, "short", e.deep, e.kernel, st, nil, budget+1)
	if c.failed != 1 {
		t.Errorf("an unspent budget failed %d checks, want 1: %v", c.failed, c.msgs)
	}
	c = checks{}
	checkCampaign(&c, "error", e.deep, e.kernel, st, context.Canceled, budget)
	if c.failed != 1 {
		t.Errorf("a campaign error failed %d checks, want 1: %v", c.failed, c.msgs)
	}
}

func TestFleetCheckCatchesDroppedBlock(t *testing.T) {
	e, p := testEnv(t)
	size := p.fleetSize()
	fr, err := runFleet(context.Background(), e, p, nil, size, 0)
	if err != nil {
		t.Fatal(err)
	}
	var c checks
	checkFleet(&c, e, fr, size.execs)
	if c.failed != 0 {
		t.Fatalf("a good fleet failed %d of %d checks: %v", c.failed, c.attempted, c.msgs)
	}

	// Drop one block a worker covered from the hub's union.
	blocks := fr.union.Blocks()
	if len(blocks) == 0 {
		t.Fatal("the fleet covered nothing")
	}
	short := &vkernel.CoverSet{}
	for _, b := range blocks[1:] {
		short.Add(b)
	}
	fr.union = short
	c = checks{}
	checkFleet(&c, e, fr, size.execs)
	if c.failed == 0 {
		t.Error("a block missing from the hub's union cover went unnoticed")
	}
	fr.union = vkernel.NewCoverSet(e.kernel.NumBlocks())
	for _, b := range blocks {
		fr.union.Add(b)
	}

	// A sync that failed, and a lease that stayed active.
	fr.workers[0].rec.mu.Lock()
	fr.workers[0].rec.failed++
	fr.workers[0].rec.mu.Unlock()
	fr.stats.ActiveLeases = 1
	c = checks{}
	checkFleet(&c, e, fr, size.execs)
	if c.failed != 2 {
		t.Errorf("a failed sync and an active lease failed %d checks, want 2: %v", c.failed, c.msgs)
	}
}

func TestSpecCheckCatchesParseError(t *testing.T) {
	e, p := testEnv(t)
	eng := engine.New(e.corpus, engine.WithClient(passModel(p, 0)), engine.WithWorkers(2), engine.WithCache(cacheEntries))
	drivers, sockets, merged, err := eng.Suite(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	results := append(drivers, sockets...)
	var c checks
	checkSpecs(&c, nil, "good", e.corpus.Env(), results, merged)
	if c.failed != 0 || c.attempted < 2 {
		t.Fatalf("a good pass failed %d of %d checks: %v", c.failed, c.attempted, c.msgs)
	}
	bad := false
	for _, r := range results {
		if r.Valid && len(r.Spec.Syscalls) > 0 {
			r.Spec.Syscalls[0].CallName = "9 not an identifier("
			bad = true
			break
		}
	}
	if !bad {
		t.Fatal("no valid result to corrupt: the test would pass vacuously")
	}
	c = checks{}
	checkSpecs(&c, nil, "corrupted", e.corpus.Env(), results, merged)
	if c.failed == 0 {
		t.Error("a valid-marked spec that does not parse back went unnoticed")
	}
}

func TestPersistCheckCatchesSkippedEntries(t *testing.T) {
	e, p := testEnv(t)
	campaigns, err := runPersistRound(context.Background(), e, p, nil, p.persistSize(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var c checks
	checkPersist(&c, e, campaigns)
	if c.failed != 0 {
		t.Fatalf("a good round failed %d of %d checks: %v", c.failed, c.attempted, c.msgs)
	}
	resume := &campaigns[len(campaigns)-1]
	resume.report.Loaded = 0
	c = checks{}
	checkPersist(&c, e, campaigns)
	if c.failed != 1 {
		t.Errorf("a resume from an empty store failed %d checks, want 1: %v", c.failed, c.msgs)
	}
}

func TestDeriveIsStableAndSpread(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 10; seed++ {
		for stream := streamWarm; stream <= streamProbe; stream++ {
			for i := 0; i < 20; i++ {
				v := derive(seed, stream, i)
				if v < 0 || seen[v] {
					t.Fatalf("derive(%d, %d, %d) = %d repeats or is negative", seed, stream, i, v)
				}
				seen[v] = true
				if v != derive(seed, stream, i) {
					t.Fatal("derive is not a function of its arguments")
				}
			}
		}
	}
}

// writeSet writes a result set of commit "c1" with one workload's runs
// per value list, on seeds 1, 2, ...
func writeSet(t *testing.T, spec *benchSpec, dir, name string, adjust func(workload, metric string, seed int64, v float64) float64) string {
	t.Helper()
	return writeSetOf(t, spec, dir, name, "c1", adjust)
}

func writeSetOf(t *testing.T, spec *benchSpec, dir, name, commit string, adjust func(workload, metric string, seed int64, v float64) float64) string {
	t.Helper()
	set := resultSet{Header: map[string]string{"commit": commit}}
	for _, wl := range spec.Workloads {
		for seed := int64(1); seed <= 10; seed++ {
			rec := runRecord{Workload: wl.Name, Seed: seed}
			rec.Correct, rec.Attempted = true, 1
			rec.Metrics = map[string]metricValue{}
			for _, m := range spec.EndToEnd {
				// A steady base with a 1% seed-to-seed ripple.
				v := 1000 * (1 + 0.001*float64(seed))
				rec.Metrics[m.Name] = metricValue{Value: adjust(wl.Name, m.Name, seed, v), Unit: m.Unit}
			}
			set.Runs = append(set.Runs, rec)
		}
	}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	same := func(_, _ string, _ int64, v float64) float64 { return v }
	a := writeSet(t, spec, dir, "a", same)

	var out bytes.Buffer
	if err := compareFiles(&out, spec, a, writeSet(t, spec, dir, "b-same", same)); err != nil {
		t.Errorf("identical sets: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("identical sets are not all ok:\n%s", out.String())
	}

	// ops_per_s down by 40% on one workload: past any bound.
	out.Reset()
	slow := writeSet(t, spec, dir, "b-slow", func(w, m string, _ int64, v float64) float64 {
		if w == "campaign_deep" && m == "ops_per_s" {
			return v * 0.6
		}
		return v
	})
	if err := compareFiles(&out, spec, a, slow); err == nil {
		t.Errorf("a 40%% throughput loss passed:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "regressed"); n != 2 { // the row and its PROBLEM line
		t.Errorf("want one regressed row, got %d mentions:\n%s", n, out.String())
	}

	// Run-to-run spread wider than the bound: unresolved, not ok, and
	// not an error by itself.
	out.Reset()
	noisy := writeSet(t, spec, dir, "b-noisy", func(w, m string, seed int64, v float64) float64 {
		if w == "fleet_sync" && m == "ops_per_s" {
			return v * (1 + 0.2*float64(seed%5))
		}
		return v
	})
	if err := compareFiles(&out, spec, a, noisy); err != nil {
		t.Errorf("a noisy metric alone must not fail the compare: %v", err)
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound was not marked unresolved:\n%s", out.String())
	}

	// A deterministic metric that differs on one seed: a break between
	// two sets of one commit, the bounds' business between two commits.
	out.Reset()
	moved := func(w, m string, seed int64, v float64) float64 {
		if w == "campaign_wide" && m == "cover_blocks" && seed == 3 {
			return v + 1
		}
		return v
	}
	if err := compareFiles(&out, spec, a, writeSet(t, spec, dir, "b-drift", moved)); err == nil || !strings.Contains(out.String(), "not deterministic") {
		t.Errorf("a cover_blocks difference on one seed of one commit passed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, a, writeSetOf(t, spec, dir, "b-change", "c2", moved)); err != nil {
		t.Errorf("a cover_blocks gain within the bound failed across commits: %v\n%s", err, out.String())
	}
}
