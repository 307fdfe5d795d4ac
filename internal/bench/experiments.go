package bench

import (
	"fmt"
	"sort"

	"kernelgpt/internal/baseline"
	"kernelgpt/internal/core"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/syzlang"
)

// Table1 reproduces "Specifications for driver/socket handlers":
// handler totals, incomplete counts, SyzDescribe's valid specs, and
// KernelGPT's valid (and repaired) specs.
func (r *Runner) Table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Specifications for driver/socket handlers",
		Header: []string{"", "# Total", "# Incomplete", "SyzDescribe # Valid", "KernelGPT # Valid (Fixed)"},
	}
	gen := r.generate(r.Opts.Model)
	base := r.syzdescribe()

	countValid := func(results []*core.Result) (valid, fixed int) {
		for _, res := range results {
			if res.Valid {
				valid++
				if res.Repaired {
					fixed++
				}
			}
		}
		return
	}
	baseValid := 0
	for _, res := range base.drivers {
		if res.Valid {
			baseValid++
		}
	}
	dv, df := countValid(gen.drivers)
	sv, sf := countValid(gen.sockets)
	t.AddRow("Driver", len(r.Corpus.Loaded(corpus.KindDriver)), len(gen.drivers),
		baseValid, fmt.Sprintf("%d (%d)", dv, df))
	t.AddRow("Socket", len(r.Corpus.Loaded(corpus.KindSocket)), len(gen.sockets),
		"N/A", fmt.Sprintf("%d (%d)", sv, sf))
	t.AddRow("Total", len(r.Corpus.Loaded(corpus.KindDriver))+len(r.Corpus.Loaded(corpus.KindSocket)),
		len(gen.drivers)+len(gen.sockets), baseValid, fmt.Sprintf("%d (%d)", dv+sv, df+sf))
	t.Note("paper: drivers 278/75, SyzDescribe 20, KernelGPT 70 (30); sockets 81/66, KernelGPT 57 (12)")
	return t
}

// Figure7 reproduces the missing-specification distribution
// histograms: handler counts per missing-percentage bucket.
func (r *Runner) Figure7() *Table {
	t := &Table{
		ID:     "figure7",
		Title:  "Missing specification distribution (histogram)",
		Header: []string{"Missing %", "# Driver handlers", "# Socket handlers"},
	}
	buckets := []struct {
		lo, hi float64
		label  string
	}{
		{0.0, 0.25, "(0-25]"},
		{0.25, 0.50, "(25-50]"},
		{0.50, 0.75, "(50-75]"},
		{0.75, 1.01, "(75-100]"},
	}
	counts := map[string][2]int{}
	for _, kindIdx := range []struct {
		kind corpus.Kind
		slot int
	}{{corpus.KindDriver, 0}, {corpus.KindSocket, 1}} {
		for _, h := range r.Corpus.Incomplete(kindIdx.kind) {
			f := corpus.MissingFraction(h)
			for _, b := range buckets {
				if f > b.lo && f <= b.hi {
					c := counts[b.label]
					c[kindIdx.slot]++
					counts[b.label] = c
				}
			}
		}
	}
	over80 := 0
	for _, h := range r.Corpus.Incomplete(corpus.KindSocket) {
		if corpus.MissingFraction(h) > 0.8 {
			over80++
		}
	}
	for _, b := range buckets {
		c := counts[b.label]
		t.AddRow(b.label, c[0], c[1])
	}
	t.Note("sockets with >80%% missing: %d (paper: 22)", over80)
	return t
}

// Table2 reproduces "Newly generated syscall descriptions".
func (r *Runner) Table2() *Table {
	t := &Table{
		ID:     "table2",
		Title:  "Newly generated syscall descriptions",
		Header: []string{"", "SyzDescribe # Syscalls", "# Types", "KernelGPT # Syscalls", "# Types"},
	}
	gen := r.generate(r.Opts.Model)
	base := r.syzdescribe()
	baseCalls, baseTypes := 0, 0
	for _, res := range base.drivers {
		if res.Valid {
			baseCalls += res.NewSyscalls()
			baseTypes += res.NewTypes()
		}
	}
	sum := func(results []*core.Result) (calls, types int) {
		for _, res := range results {
			c, ty := newSyscallCount(res)
			calls += c
			types += ty
		}
		return
	}
	dc, dt := sum(gen.drivers)
	sc, st := sum(gen.sockets)
	t.AddRow("Driver", baseCalls, baseTypes, dc, dt)
	t.AddRow("Socket", "N/A", "N/A", sc, st)
	t.AddRow("Total", baseCalls, baseTypes, dc+sc, dt+st)
	t.Note("paper: SyzDescribe 146/168 (drivers only); KernelGPT 532/294 total")
	return t
}

// suiteCampaigns runs (and caches) the three whole-suite campaigns of
// Table 3 / Table 4.
type suiteCampaigns struct {
	syz, syzd, kgpt []*fuzz.Stats
}

func (r *Runner) suiteCampaigns() *suiteCampaigns {
	if r.campCache != nil {
		return r.campCache
	}
	existing := r.Corpus.ExistingSuite()
	base := r.syzdescribe()
	gen := r.generate(r.Opts.Model)

	syzT := r.compile(existing)
	syzdT := r.compile(existing, base.suite)
	kgptT := r.compile(existing, gen.suite)

	out := &suiteCampaigns{
		syz:  r.campaign(syzT, r.Opts.Execs, 1),
		syzd: r.campaign(syzdT, r.Opts.Execs, 2),
		kgpt: r.campaign(kgptT, r.Opts.Execs, 3),
	}
	r.campCache = out
	return out
}

// Table3 reproduces "Overall effectiveness": coverage, unique
// coverage vs plain Syzkaller, and mean unique crashes over Reps.
func (r *Runner) Table3() *Table {
	t := &Table{
		ID:     "table3",
		Title:  fmt.Sprintf("Overall effectiveness (%d rep.)", r.Opts.Reps),
		Header: []string{"Suite", "Cov", "Unique Cov", "Crash"},
	}
	camps := r.suiteCampaigns()
	syzCov := fuzz.UnionCover(camps.syz)
	row := func(name string, reps []*fuzz.Stats) {
		unique := "-"
		if name != "Syzkaller" {
			unique = fmt.Sprint(fuzz.UniqueTo(fuzz.UnionCover(reps), syzCov))
		}
		t.AddRow(name, fmt.Sprintf("%.0f", fuzz.MeanCover(reps)), unique,
			fmt.Sprintf("%.1f", fuzz.MeanCrashes(reps)))
	}
	row("Syzkaller", camps.syz)
	row("Syzkaller + SyzDescribe", camps.syzd)
	row("Syzkaller + KernelGPT", camps.kgpt)
	t.Note("paper shape: KernelGPT cov > Syzkaller > SyzDescribe; KernelGPT unique-cov > SyzDescribe unique-cov; crashes 17.7 / 16.0 / 13.7")
	return t
}

// Table4 reproduces "New bugs detected by KernelGPT": every planted
// new bug, with which suite's campaigns triggered it.
func (r *Runner) Table4() *Table {
	t := &Table{
		ID:     "table4",
		Title:  "New bugs detected by the generated specifications",
		Header: []string{"Crash with new specs", "CVE", "Confirmed", "Fixed", "KernelGPT", "Syzkaller", "SyzDescribe"},
	}
	camps := r.suiteCampaigns()
	// Extend the KernelGPT campaign for bug hunting: the paper's
	// fuzzing sessions ran for days; the planted stateful bugs need a
	// deeper exploration budget than the coverage comparison.
	gen := r.generate(r.Opts.Model)
	kgptT := r.compile(r.Corpus.ExistingSuite(), gen.suite)
	longCfg := fuzz.DefaultConfig(r.Opts.Execs*4, r.Opts.Seed*7919+17)
	longCfg.MaxCalls = 12 // deep stateful chains need longer programs
	long := fuzz.New(kgptT, r.Kernel).RunRepetitions(r.Ctx, longCfg, r.Opts.Reps)

	kgptHits := fuzz.UnionCrashTitles(camps.kgpt)
	for title := range fuzz.UnionCrashTitles(long) {
		kgptHits[title] = true
	}
	syzHits := fuzz.UnionCrashTitles(camps.syz)
	syzdHits := fuzz.UnionCrashTitles(camps.syzd)

	bugs := r.Corpus.AllBugs()
	titles := make([]string, 0, len(bugs))
	for title := range bugs {
		titles = append(titles, title)
	}
	sort.Strings(titles)
	found, cves := 0, 0
	for _, title := range titles {
		b := bugs[title]
		mark := func(hit bool) string {
			if hit {
				return "FOUND"
			}
			return "x"
		}
		if kgptHits[title] {
			found++
			if b.CVE != "" {
				cves++
			}
		}
		t.AddRow(title, orDash(b.CVE), yes(b.Confirmed), yes(b.Fixed),
			mark(kgptHits[title]), mark(syzHits[title]), mark(syzdHits[title]))
	}
	t.Note("planted new bugs: %d; found by KernelGPT specs: %d (%d with CVEs)", len(bugs), found, cves)
	t.Note("paper: 24 bugs, none detectable by default Syzkaller or SyzDescribe")
	return t
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func yes(b bool) string {
	if b {
		return "yes"
	}
	return "-"
}

// driverSuite builds the three per-driver specs of Table 5 for one
// handler: existing Syzkaller, SyzDescribe, KernelGPT.
func (r *Runner) driverSuite(name string) (syz, syzd, kgpt *syzlang.File) {
	h := r.Corpus.Handler(name)
	syz = r.Corpus.FamilySpec(h, corpus.SyzkallerSpec)
	if res := baseline.New(r.Corpus).GenerateFor(h); res.Valid {
		syzd = res.Spec
	}
	kgpt = r.kernelGPTFamily(name)
	return
}

// kernelGPTFamily generates (and caches) the KernelGPT spec for one
// handler family, regardless of existing-suite completeness (§5.2
// generates for the existing drivers too).
func (r *Runner) kernelGPTFamily(name string) *syzlang.File {
	if r.t5Cache == nil {
		r.t5Cache = map[string]*syzlang.File{}
	}
	if f, ok := r.t5Cache[name]; ok {
		return f
	}
	gen := r.generate(r.Opts.Model)
	res := gen.resultFor(name)
	if res == nil {
		res = gen.eng.GenerateFor(r.Ctx, r.Corpus.Handler(name))
	}
	var f *syzlang.File
	if res.Valid {
		f = res.Spec
	}
	r.t5Cache[name] = f
	return f
}

// perDriverCov compiles a spec alone and fuzzes the driver in
// isolation (§5.2 enables only the driver's own syscalls).
func (r *Runner) perDriverCov(spec *syzlang.File, seedOffset int64) (cov float64, crashes float64, nsys int) {
	if spec == nil || len(spec.Syscalls) == 0 {
		return 0, 0, 0
	}
	if errs := syzlang.Validate(spec, r.Corpus.Env()); len(errs) > 0 {
		return 0, 0, len(spec.Syscalls)
	}
	tgt := r.compile(spec)
	reps := r.campaign(tgt, r.Opts.PerDriverExecs, seedOffset)
	return fuzz.MeanCover(reps), fuzz.MeanCrashes(reps), len(spec.Syscalls)
}

// Table5 reproduces the per-driver comparison for the SyzDescribe
// evaluation set.
func (r *Runner) Table5() *Table {
	t := &Table{
		ID:    "table5",
		Title: "Per-driver specification comparison",
		Header: []string{"Driver", "Syzkaller #Sys", "Cov", "SyzDescribe #Sys", "Cov",
			"KernelGPT #Sys", "Cov", "Best"},
	}
	var totals [3]float64
	var totalSys [3]int
	wins := map[string]int{}
	for i, name := range corpus.Table5Names() {
		if name == "kvm_vm" || name == "kvm_vcpu" {
			continue
		}
		syz, syzd, kgpt := r.driverSuite(name)
		covS, _, nS := r.perDriverCov(syz, int64(i*31+1))
		covD, _, nD := r.perDriverCov(syzd, int64(i*31+2))
		covK, _, nK := r.perDriverCov(kgpt, int64(i*31+3))
		best := "Syzkaller"
		switch {
		case covK >= covS && covK >= covD:
			best = "KernelGPT"
		case covD >= covS && covD >= covK:
			best = "SyzDescribe"
		}
		wins[best]++
		totals[0] += covS
		totals[1] += covD
		totals[2] += covK
		totalSys[0] += nS
		totalSys[1] += nD
		totalSys[2] += nK
		cell := func(n int, cov float64) (string, string) {
			if n == 0 {
				return "Err", "-"
			}
			return fmt.Sprint(n), fmt.Sprintf("%.0f", cov)
		}
		sN, sC := cell(nS, covS)
		dN, dC := cell(nD, covD)
		kN, kC := cell(nK, covK)
		t.AddRow(name, sN, sC, dN, dC, kN, kC, best)
	}
	t.AddRow("Total", totalSys[0], fmt.Sprintf("%.0f", totals[0]),
		totalSys[1], fmt.Sprintf("%.0f", totals[1]),
		totalSys[2], fmt.Sprintf("%.0f", totals[2]), "")
	t.Note("wins: KernelGPT=%d SyzDescribe=%d Syzkaller=%d (paper: 20 / 4 / 4)",
		wins["KernelGPT"], wins["SyzDescribe"], wins["Syzkaller"])
	if totals[0] > 0 {
		t.Note("KernelGPT total cov vs Syzkaller: %+.1f%% (paper: +18.0%%)",
			100*(totals[2]-totals[0])/totals[0])
	}
	return t
}

// Table6 reproduces the per-socket comparison (SyzDescribe N/A).
func (r *Runner) Table6() *Table {
	t := &Table{
		ID:     "table6",
		Title:  "Per-socket specification comparison",
		Header: []string{"Socket", "Syzkaller #Sys", "Cov", "Crash", "KernelGPT #Sys", "Cov", "Crash"},
	}
	var totS, totK float64
	var sysS, sysK int
	var crS, crK float64
	for i, name := range corpus.Table6Names() {
		h := r.Corpus.Handler(name)
		syz := r.Corpus.FamilySpec(h, corpus.SyzkallerSpec)
		kgpt := r.kernelGPTFamily(name)
		covS, crashS, nS := r.perDriverCov(syz, int64(i*17+401))
		covK, crashK, nK := r.perDriverCov(kgpt, int64(i*17+402))
		totS += covS
		totK += covK
		sysS += nS
		sysK += nK
		crS += crashS
		crK += crashK
		t.AddRow(name, nS, fmt.Sprintf("%.0f", covS), fmt.Sprintf("%.1f", crashS),
			nK, fmt.Sprintf("%.0f", covK), fmt.Sprintf("%.1f", crashK))
	}
	t.AddRow("Total", sysS, fmt.Sprintf("%.0f", totS), fmt.Sprintf("%.1f", crS),
		sysK, fmt.Sprintf("%.0f", totK), fmt.Sprintf("%.1f", crK))
	if totS > 0 {
		t.Note("KernelGPT cov vs Syzkaller: %+.1f%% (paper: +18.6%%)", 100*(totK-totS)/totS)
	}
	return t
}

// ablationDrivers picks the first 10 valid Table 5 drivers (§5.2.3's
// subset).
func (r *Runner) ablationDrivers() []string {
	var names []string
	for _, n := range corpus.Table5Names() {
		if n == "kvm_vm" || n == "kvm_vcpu" {
			continue
		}
		names = append(names, n)
		if len(names) == 10 {
			break
		}
	}
	return names
}

// AblationIterative reproduces the iterative-vs-all-in-one ablation.
func (r *Runner) AblationIterative() *Table {
	t := &Table{
		ID:     "ablation-iterative",
		Title:  "Iterative multi-stage vs all-in-one prompting (first 10 drivers)",
		Header: []string{"Mode", "# Syscalls", "# Types", "Cov"},
	}
	modes := []struct {
		name     string
		allInOne bool
	}{{"Iterative", false}, {"All-in-one", true}}
	var res [2][3]float64
	for mi, mode := range modes {
		opts := core.DefaultOptions()
		opts.AllInOne = mode.allInOne
		eng := r.engine(r.Opts.Model, opts)
		for i, name := range r.ablationDrivers() {
			h := r.Corpus.Handler(name)
			gres := eng.GenerateFor(r.Ctx, h)
			if !gres.Valid {
				continue
			}
			res[mi][0] += float64(gres.NewSyscalls())
			res[mi][1] += float64(gres.NewTypes())
			cov, _, _ := r.perDriverCov(gres.Spec, int64(900+mi*100+i))
			res[mi][2] += cov
		}
		t.AddRow(mode.name, fmt.Sprintf("%.0f", res[mi][0]),
			fmt.Sprintf("%.0f", res[mi][1]), fmt.Sprintf("%.0f", res[mi][2]))
	}
	if res[1][0] > 0 {
		t.Note("iterative/all-in-one ratios: syscalls %.2fx, types %.2fx, cov %.2fx (paper: 1.28x / 2.37x / 1.39x)",
			res[0][0]/res[1][0], safeDiv(res[0][1], res[1][1]), safeDiv(res[0][2], res[1][2]))
	}
	return t
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// AblationModel reproduces the LLM-choice ablation (GPT-4 vs GPT-4o
// vs GPT-3.5).
func (r *Runner) AblationModel() *Table {
	t := &Table{
		ID:     "ablation-model",
		Title:  "LLM choice ablation (first 10 drivers)",
		Header: []string{"Model", "# Syscalls", "Cov"},
	}
	for mi, model := range llm.ModelNames() {
		eng := r.engine(model, core.DefaultOptions())
		var sys float64
		var cov float64
		for i, name := range r.ablationDrivers() {
			h := r.Corpus.Handler(name)
			gres := eng.GenerateFor(r.Ctx, h)
			if !gres.Valid {
				continue
			}
			sys += float64(gres.NewSyscalls())
			c, _, _ := r.perDriverCov(gres.Spec, int64(1300+mi*100+i))
			cov += c
		}
		t.AddRow(model, fmt.Sprintf("%.0f", sys), fmt.Sprintf("%.0f", cov))
	}
	t.Note("paper: gpt-3.5 85 syscalls (-21%% cov); gpt-4 143; gpt-4o 144 (comparable cov)")
	return t
}

// CorrectnessAudit reproduces §5.1.3: generated specs for the
// no-description drivers compared against the ground truth.
func (r *Runner) CorrectnessAudit() *Table {
	t := &Table{
		ID:     "audit",
		Title:  "Semantic correctness of generated specs (no-spec drivers)",
		Header: []string{"Metric", "Value"},
	}
	gen := r.generate(r.Opts.Model)
	audited, noMissing, wrongIDs, wrongIDDrivers, wrongTypes, wrongTypeDrivers, totalCalls := 0, 0, 0, 0, 0, 0, 0
	for _, res := range gen.drivers {
		h := res.Handler
		// Audit only the drivers with no existing descriptions (the
		// 45-driver population of §5.1.3).
		if h.SyzkallerCmds != nil || h.SyzkallerComplete {
			continue
		}
		if !res.Valid {
			continue
		}
		audited++
		oracleCmds := map[string]bool{}
		for i := range h.Cmds {
			oracleCmds[h.Cmds[i].Name] = true
		}
		described := map[string]bool{}
		wrongHere := 0
		for _, s := range res.Spec.Syscalls {
			if s.CallName != "ioctl" {
				continue
			}
			totalCalls++
			described[s.Variant] = true
			if !oracleCmds[s.Variant] {
				wrongHere++
			}
		}
		if wrongHere > 0 {
			wrongIDs += wrongHere
			wrongIDDrivers++
		}
		missing := 0
		for i := range h.Cmds {
			if !h.Cmds[i].Indirect && !described[h.Cmds[i].Name] {
				missing++
			}
		}
		if missing == 0 {
			noMissing++
		}
		badTypes := r.auditTypes(h, res.Spec)
		if badTypes > 0 {
			wrongTypes += badTypes
			wrongTypeDrivers++
		}
	}
	t.AddRow("audited drivers", audited)
	t.AddRow("drivers with no missing syscalls", fmt.Sprintf("%d (%.1f%%)", noMissing, pct(noMissing, audited)))
	t.AddRow("wrong identifier values (syscalls / drivers)", fmt.Sprintf("%d / %d", wrongIDs, wrongIDDrivers))
	t.AddRow("wrong types (syscalls / drivers)", fmt.Sprintf("%d / %d", wrongTypes, wrongTypeDrivers))
	t.AddRow("total audited ioctl descriptions", totalCalls)
	t.Note("paper: 42/45 (93.3%%) no missing; 3 wrong ids in 2 drivers; 9 wrong types in 7 drivers")
	return t
}

// auditTypes counts described commands whose payload struct shape
// disagrees with the ground truth (field count or len-relation).
func (r *Runner) auditTypes(h *corpus.Handler, spec *syzlang.File) int {
	bad := 0
	byName := map[string]*syzlang.StructDef{}
	for _, st := range spec.Structs {
		byName[st.Name] = st
	}
	for i := range h.Cmds {
		c := &h.Cmds[i]
		if c.Arg == "" {
			continue
		}
		st := byName[c.Arg]
		sm := h.StructByName(c.Arg)
		if st == nil || sm == nil {
			continue
		}
		if len(st.Fields) != len(sm.Fields) {
			bad++
			continue
		}
		for fi, f := range sm.Fields {
			if f.LenOf != "" && st.Fields[fi].Type.Ident != "len" {
				bad++
				break
			}
		}
	}
	return bad
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// TokenCost reproduces the §5.1.1 accounting.
func (r *Runner) TokenCost() *Table {
	t := &Table{
		ID:     "tokens",
		Title:  "LLM token accounting for the generation run",
		Header: []string{"Metric", "Value"},
	}
	gen := r.generate(r.Opts.Model)
	u := gen.eng.Usage()
	t.AddRow("prompts (API calls)", u.Calls)
	t.AddRow("input tokens", u.PromptTokens)
	t.AddRow("output tokens", u.CompletionTokens)
	if u.Calls > 0 {
		t.AddRow("avg input tokens/prompt", u.PromptTokens/u.Calls)
		t.AddRow("avg output tokens/prompt", u.CompletionTokens/u.Calls)
	}
	t.AddRow("estimated cost (USD)", fmt.Sprintf("%.2f", u.CostUSD()))
	t.Note("paper: 5.56M input / 400K output, 2630/189 per prompt, $34")
	return t
}

// experiments is every experiment in paper order: the id benchtables
// -only selects it by, and the method that builds its table.
var experiments = []struct {
	id  string
	run func(*Runner) *Table
}{
	{"table1", (*Runner).Table1},
	{"figure7", (*Runner).Figure7},
	{"table2", (*Runner).Table2},
	{"table3", (*Runner).Table3},
	{"table4", (*Runner).Table4},
	{"table5", (*Runner).Table5},
	{"table6", (*Runner).Table6},
	{"ablation-iterative", (*Runner).AblationIterative},
	{"ablation-model", (*Runner).AblationModel},
	{"ablation-repair", (*Runner).AblationRepair},
	{"ablation-locality", (*Runner).AblationLocality},
	{"audit", (*Runner).CorrectnessAudit},
	{"tokens", (*Runner).TokenCost},
}

// ExperimentIDs lists every experiment id in paper order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// All runs the experiments whose ids are in only (every experiment
// when only is empty) in paper order, handing each table to emit as
// soon as it is built; the others are not run. Once r.Ctx is done it
// starts no further experiment and returns the context's error.
func (r *Runner) All(only map[string]bool, emit func(*Table)) error {
	for _, e := range experiments {
		if len(only) > 0 && !only[e.id] {
			continue
		}
		if err := r.Ctx.Err(); err != nil {
			return err
		}
		emit(e.run(r))
	}
	return nil
}

// AblationRepair quantifies the validation-and-repair phase (§3.2):
// Table 1's valid counts with repair disabled.
func (r *Runner) AblationRepair() *Table {
	t := &Table{
		ID:     "ablation-repair",
		Title:  "Specification validity with and without the repair phase",
		Header: []string{"Mode", "Valid drivers", "Valid sockets"},
	}
	for _, mode := range []struct {
		name   string
		repair bool
	}{{"Repair on", true}, {"Repair off", false}} {
		opts := core.DefaultOptions()
		opts.Repair = mode.repair
		// Deliberately a bare Generator, not r.engine(): this ablation
		// isolates the repair phase on direct generation, so dependency
		// following (which re-validates merged family specs and would
		// blur the repair-only signal on kvm-style chains) stays off.
		gen := core.New(llm.NewSim(r.Opts.Model, uint64(r.Opts.Seed)), r.Corpus, opts)
		drv, sck := 0, 0
		for _, h := range r.Corpus.Incomplete(corpus.KindDriver) {
			if gen.GenerateFor(r.Ctx, h).Valid {
				drv++
			}
		}
		for _, h := range r.Corpus.Incomplete(corpus.KindSocket) {
			if gen.GenerateFor(r.Ctx, h).Valid {
				sck++
			}
		}
		t.AddRow(mode.name, drv, sck)
	}
	t.Note("paper: repair recovers 30 driver and 12 socket specs that fail validation initially")
	return t
}

// AblationLocality quantifies the fuzzer's resource-locality call
// bias: stateful multi-call bugs (the CEC chain) depend on it.
func (r *Runner) AblationLocality() *Table {
	t := &Table{
		ID:     "ablation-locality",
		Title:  "Fuzzer call-locality bias vs uniform call choice",
		Header: []string{"Mode", "Cov", "New bugs hit"},
	}
	gen := r.generate(r.Opts.Model)
	tgt := r.compile(r.Corpus.ExistingSuite(), gen.suite)
	newBugs := r.Corpus.AllBugs()
	for _, mode := range []struct {
		name string
		off  bool
	}{{"Locality bias", false}, {"Uniform", true}} {
		cfg := fuzz.DefaultConfig(r.Opts.Execs, r.Opts.Seed*7919+71)
		cfg.NoLocality = mode.off
		reps := fuzz.New(tgt, r.Kernel).RunRepetitions(r.Ctx, cfg, r.Opts.Reps)
		hits := 0
		for title := range fuzz.UnionCrashTitles(reps) {
			if _, ok := newBugs[title]; ok {
				hits++
			}
		}
		t.AddRow(mode.name, fmt.Sprintf("%.0f", fuzz.MeanCover(reps)), hits)
	}
	t.Note("stateful chains (PriorCmds bugs) rely on Syzkaller-style call locality")
	return t
}
