package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"kernelgpt/internal/ccode"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/vkernel"
)

// --- BENCHMARK.json ------------------------------------------------

// metricDef is one declared metric. Bound is set on end-to-end
// metrics only.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json: the one place metric names, units,
// directions and regression bounds live.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// --- run parameters ------------------------------------------------

// params is everything a workload's inputs depend on.
type params struct {
	seed    int64
	seconds int
	// scale is the corpus scale: 1.0 for measurement, corpus.TestConfig's
	// 0.05 in the harness self-tests.
	scale float64
	// tiny shrinks every workload to about 2000 execs or a single
	// generation pass (self-tests).
	tiny bool
	// procs bounds the load: goroutines, shards and connections.
	procs int
	// tmp is a scratch directory inside the checkout.
	tmp string
}

func loadProcs() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	return n
}

// Seed streams: one per independent use, so no two draw the same
// derived seed.
const (
	streamWarm = iota
	streamRound
	streamWorker
	streamResume
	streamSim
	streamPost
	streamProbe
)

// derive maps (-seed, stream, index) to a campaign or sim-model seed
// by a splitmix64 step, so neighbouring -seed values give unrelated
// inputs.
func derive(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + uint64(i)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// scaled sizes a count in proportion to -seconds (sizes are quoted at
// the 10 s the driver runs), never below 1.
func (p params) scaled(atTen int) int {
	n := (atTen*p.seconds + 5) / 10
	if n < 1 {
		n = 1
	}
	return n
}

// --- common set-up -------------------------------------------------

// env is the common set-up every workload starts from.
type env struct {
	corpus *corpus.Corpus
	kernel *vkernel.Kernel
	// wide is the full suite: the existing descriptions merged with the
	// oracle spec of every loaded driver and socket. deep is dm+cec:
	// few syscalls, large nested structs.
	wide, deep *prog.Target
}

// buildEnv is corpus.Build -> vkernel.New -> target build.
func buildEnv(scale float64, tk *track) (*env, error) {
	tk.begin("corpus.build")
	c := corpus.Build(corpus.Config{Scale: scale})
	tk.end()
	tk.begin("vkernel.new")
	k := vkernel.New(c)
	tk.end()
	files := []*syzlang.File{c.ExistingSuite()}
	for _, kind := range []corpus.Kind{corpus.KindDriver, corpus.KindSocket} {
		for _, h := range c.Loaded(kind) {
			files = append(files, corpus.OracleSpec(h))
		}
	}
	suite := syzlang.MergeDedup(files...)
	tk.begin("prog.compile")
	wide, err := prog.Compile(suite, c.Env())
	tk.end()
	if err != nil {
		return nil, fmt.Errorf("compile wide target: %w", err)
	}
	spec := corpus.OracleSpec(c.Handler("dm"))
	spec.Merge(corpus.OracleSpec(c.Handler("cec")))
	deep, err := prog.Compile(spec, c.Env())
	if err != nil {
		return nil, fmt.Errorf("compile deep target: %w", err)
	}
	return &env{corpus: c, kernel: k, wide: wide, deep: deep}, nil
}

// setupReps is how often set-up is repeated; setup_s is the median.
const setupReps = 7

// measureSetup times the common set-up setupReps times, a reference
// slice before each, and returns the last env with the median wall
// time in seconds and the machine's slowdown over those slices.
func measureSetup(p params) (*env, float64, machineRef, error) {
	var e *env
	var ref machineRef
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		ref.slice()
		t0 := time.Now()
		var err error
		if e, err = buildEnv(p.scale, nil); err != nil {
			return nil, 0, ref, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), ref, nil
}

// setupLayers times each set-up stage once for the traced run.
func setupLayers(p params, tr *tracer, layer map[string]float64) (*env, error) {
	tk := tr.track(-1, 0)
	e, err := buildEnv(p.scale, tk)
	if err != nil {
		return nil, err
	}
	tk.begin("ccode.index")
	ccode.NewIndex(e.corpus.Index.Files())
	tk.end()
	tk.close()
	for name, spanName := range map[string]string{
		"corpus.build_ms": "corpus.build", "vkernel.new_ms": "vkernel.new",
		"prog.compile_ms": "prog.compile", "ccode.index_ms": "ccode.index",
	} {
		layer[name] = tr.get(spanName).meanNs() / 1e6
	}
	return e, nil
}

// --- machine reference ---------------------------------------------

// The reference VM changes speed: the same binary runs 30 to 70% apart
// ten minutes later, and by more than the largest bound the contract
// allows within the ten runs of a set. So every run times, between its
// rounds, slices of a fixed loop that runs none of the repository's
// code, and reports its two wall-clock metrics as they would read on a
// machine where a slice takes refNominalMs: ops_per_s times the
// slowdown, setup_s divided by it. A slice is half small allocations
// kept alive through a map and half hashing, because on this VM
// allocation-heavy code slows about twice as much as the workloads do
// and plain computation about half as much; their sum follows the
// workloads one to one (README.md has the measurements).

// refNominalMs is what a slice takes on the reference VM between its
// fast phases (70 ms) and its slow ones (115 ms). It only fixes the
// scale the two metrics are reported on.
const refNominalMs = 90.0

// machineRef collects the reference slices of one run.
type machineRef struct{ ms []float64 }

type refNode struct {
	next *refNode
	pad  [6]uint64
}

// slice runs one slice of the reference loop.
func (m *machineRef) slice() {
	t0 := time.Now()
	live := map[int]*refNode{}
	for i := 0; i < 400000; i++ {
		live[i%50000] = &refNode{next: live[(i*7)%50000]}
	}
	buf := make([]byte, 1<<20)
	for i := 0; i < 40; i++ {
		sum := sha256.Sum256(buf)
		buf[i] = sum[0]
	}
	m.ms = append(m.ms, float64(time.Since(t0))/1e6)
}

// slowdown is the median slice time over the nominal one: above 1 on a
// machine slower than nominal. A run that took no slice is not scaled.
func (m *machineRef) slowdown() float64 {
	if len(m.ms) == 0 {
		return 1
	}
	return median(m.ms) / refNominalMs
}

// --- outcome -------------------------------------------------------

// checks counts verified operations. A failed check is counted, its
// message kept, and the run exits non-zero.
type checks struct {
	attempted, failed int
	msgs              []string
}

func (c *checks) ok(cond bool, format string, args ...any) {
	c.attempted++
	if cond {
		return
	}
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// outcome is what one workload run produced.
type outcome struct {
	// rates holds each timed round's ops per second as the clock read
	// them, ref the reference slices taken between the rounds; ops, alloc
	// and mallocs total the timed rounds.
	rates   []float64
	ref     machineRef
	ops     int
	alloc   uint64
	mallocs uint64
	// covers is each campaign's final covered-block count, titles the
	// crash titles found over all of them.
	covers []int
	titles map[string]bool
	checks checks
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
	// notes are printed above the result line (sample counts,
	// diagnostics).
	notes []string
}

func newOutcome() *outcome {
	return &outcome{titles: map[string]bool{}, layer: map[string]float64{}}
}

// timed runs one round with the wall clock and allocation counters
// around it, after a reference slice (none in the self-tests, whose
// rates nobody reads); fn returns the operations it completed.
func (o *outcome) timed(p params, fn func() int) {
	if !p.tiny {
		o.ref.slice()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	ops := fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	o.rates = append(o.rates, float64(ops)/wall.Seconds())
	o.ops += ops
	o.alloc += m1.TotalAlloc - m0.TotalAlloc
	o.mallocs += m1.Mallocs - m0.Mallocs
}

func (o *outcome) addStats(st *fuzz.Stats) {
	o.covers = append(o.covers, st.CoverCount())
	for t := range st.Crashes {
		o.titles[t] = true
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// endToEnd derives the end-to-end metrics every workload reports;
// setupS is already on the nominal machine's scale.
func (o *outcome) endToEnd(setupS float64) map[string]float64 {
	coverSum := 0
	for _, c := range o.covers {
		coverSum += c
	}
	return map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       median(o.rates) * o.ref.slowdown(),
		"alloc_kb_per_op": ratio(float64(o.alloc)/1024, float64(o.ops)),
		"allocs_per_op":   ratio(float64(o.mallocs), float64(o.ops)),
		"cover_blocks":    ratio(float64(coverSum), float64(len(o.covers))),
		"crashes_found":   float64(len(o.titles)),
	}
}

// --- output checks shared by the campaign workloads -----------------

// checkCampaign verifies one finished campaign: the budget was spent,
// no error came back, and every reported repro crashes a fresh VM
// again under the reported title.
func checkCampaign(c *checks, what string, tgt *prog.Target, k *vkernel.Kernel, st *fuzz.Stats, err error, budget int) {
	c.ok(err == nil, "%s: campaign returned %v", what, err)
	if st == nil {
		c.ok(false, "%s: no stats", what)
		return
	}
	c.ok(st.Execs == budget, "%s: spent %d execs of a %d budget", what, st.Execs, budget)
	for _, title := range st.CrashTitles() {
		checkRepro(c, what, tgt, k, title, st.Crashes[title].Repro)
	}
}

func checkRepro(c *checks, what string, tgt *prog.Target, k *vkernel.Kernel, title, repro string) {
	p, err := prog.Deserialize(tgt, repro)
	if err != nil {
		c.ok(false, "%s: repro of %q does not parse: %v", what, title, err)
		return
	}
	c.ok(seedpool.Reproduces(k.NewVM(), p, title), "%s: repro of %q does not crash a fresh VM with that title", what, title)
}
