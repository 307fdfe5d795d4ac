package seedpool

import (
	"math/rand"
	"sort"
	"testing"

	"kernelgpt/internal/prog"
)

// mkProg builds a distinguishable empty program.
func mkProg() *prog.Prog { return &prog.Prog{} }

// mass is the summed scheduling weight of the exported seeds (base
// priorities plus lineage bonuses).
func mass(p *Pool) int64 {
	var m int64
	for _, s := range p.Export() {
		m += int64(s.Weight())
	}
	return m
}

// held is the set of programs the pool exports.
func held(p *Pool) map[*prog.Prog]bool {
	out := map[*prog.Prog]bool{}
	for _, s := range p.Export() {
		out[s.Prog] = true
	}
	return out
}

func TestPoolAddAndLen(t *testing.T) {
	p := New(4)
	if p.Len() != 0 {
		t.Fatalf("fresh pool: len=%d", p.Len())
	}
	if p.Add(mkProg(), 0, "") || p.Add(mkProg(), -3, "") {
		t.Fatal("non-positive priority admitted")
	}
	for i := 1; i <= 4; i++ {
		if !p.Add(mkProg(), i, "") {
			t.Fatalf("Add #%d rejected below capacity", i)
		}
	}
	if p.Len() != 4 || mass(p) != 10 {
		t.Fatalf("len=%d total=%d", p.Len(), mass(p))
	}
	if p.Add(mkProg(), 1, "") || p.Len() != 4 {
		t.Fatalf("full pool admitted a tying offer: len=%d", p.Len())
	}
}

func TestPoolEvictsLowestPriority(t *testing.T) {
	p := New(3)
	a, b, c, d := mkProg(), mkProg(), mkProg(), mkProg()
	p.Add(a, 5, "")
	p.Add(b, 1, "")
	p.Add(c, 3, "")
	// d outranks b (the weakest): b is evicted.
	if !p.Add(d, 2, "") {
		t.Fatal("stronger offer rejected")
	}
	if p.Len() != 3 || mass(p) != 10 {
		t.Fatalf("after eviction: len=%d total=%d", p.Len(), mass(p))
	}
	if h := held(p); h[b] || !h[a] || !h[c] || !h[d] {
		t.Fatalf("wrong eviction victim: %v", h)
	}
	// An offer weaker than (or tying) the weakest is rejected and
	// leaves the corpus as it was.
	if p.Add(mkProg(), 2, "") {
		t.Fatal("tying offer should be rejected (older seed sticky)")
	}
	if p.Add(mkProg(), 1, "") {
		t.Fatal("weaker offer admitted")
	}
	if h := held(p); p.Len() != 3 || len(h) != 3 || !h[a] || !h[c] || !h[d] {
		t.Fatalf("rejected offers changed the corpus: len=%d %v", p.Len(), h)
	}
}

func TestPoolPickWeighted(t *testing.T) {
	p := New(8)
	lo, hi := mkProg(), mkProg()
	p.Add(lo, 1, "")
	p.Add(hi, 9, "")
	r := rand.New(rand.NewSource(1))
	counts := map[*prog.Prog]int{}
	for i := 0; i < 5000; i++ {
		counts[p.Pick(r)]++
	}
	if counts[lo]+counts[hi] != 5000 {
		t.Fatalf("picks outside pool: %v", counts)
	}
	// Expect ~10%/90%; allow generous slack.
	if counts[hi] < 4000 || counts[lo] < 200 {
		t.Fatalf("weighting off: lo=%d hi=%d", counts[lo], counts[hi])
	}
}

func TestPoolPickEmpty(t *testing.T) {
	p := New(2)
	if p.Pick(rand.New(rand.NewSource(1))) != nil {
		t.Fatal("empty pool picked a seed")
	}
}

func TestPoolDeterministic(t *testing.T) {
	build := func() []*prog.Prog {
		p := New(16)
		progs := make([]*prog.Prog, 64)
		for i := range progs {
			progs[i] = mkProg()
			p.Add(progs[i], (i*7)%13+1, "")
		}
		r := rand.New(rand.NewSource(42))
		var picks []*prog.Prog
		for i := 0; i < 100; i++ {
			picks = append(picks, p.Pick(r))
		}
		return picks
	}
	// Identity-based comparison is impossible across builds; compare
	// pick indices instead by re-running with recorded mapping.
	idx := func(picks []*prog.Prog) []int {
		seen := map[*prog.Prog]int{}
		var out []int
		for _, pr := range picks {
			if _, ok := seen[pr]; !ok {
				seen[pr] = len(seen)
			}
			out = append(out, seen[pr])
		}
		return out
	}
	a, b := idx(build()), idx(build())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

// fenPrefix sums the Fenwick tree's weights over the first n slots.
func fenPrefix(p *Pool, n int) int64 {
	var s int64
	for i := n; i > 0; i -= i & -i {
		s += p.fen[i]
	}
	return s
}

// TestPoolFenwickConsistency hammers the pool with churn and checks
// the Fenwick mass always matches the heap contents, and that every
// pick lands on a live slot.
func TestPoolFenwickConsistency(t *testing.T) {
	p := New(32)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		p.Add(mkProg(), r.Intn(40)+1, "")
		if sum := mass(p); sum != p.total || sum != fenPrefix(p, p.Len()) {
			t.Fatalf("iter %d: total %d, fenwick %d != sum %d", i, p.total, fenPrefix(p, p.Len()), sum)
		}
		if p.Pick(r) == nil {
			t.Fatalf("iter %d: pick failed on non-empty pool", i)
		}
	}
	if p.Len() != 32 {
		t.Fatalf("pool not at capacity: %d", p.Len())
	}
}

// TestPoolHeapProperty verifies the eviction victim is always the
// minimum under churn.
func TestPoolHeapProperty(t *testing.T) {
	p := New(16)
	r := rand.New(rand.NewSource(9))
	live := map[*prog.Prog]int{}
	for i := 0; i < 500; i++ {
		pr, prio := mkProg(), r.Intn(100)+1
		before := held(p)
		if p.Add(pr, prio, "") {
			live[pr] = prio
			if len(before) == 16 {
				// Someone was evicted; it must have had the minimum
				// priority among the pre-add seeds.
				minPrio := 1 << 30
				for q := range before {
					if live[q] < minPrio {
						minPrio = live[q]
					}
				}
				var evicted *prog.Prog
				for q := range held(p) {
					delete(before, q)
				}
				for q := range before {
					evicted = q
				}
				if evicted == nil || live[evicted] != minPrio {
					t.Fatalf("iter %d: evicted prio %d, min was %d", i, live[evicted], minPrio)
				}
				delete(live, evicted)
			}
		}
	}
}

// TestPoolLineageReward: coverage feedback shifts scheduling weight
// toward productive lineages and decays it when they run dry.
func TestPoolLineageReward(t *testing.T) {
	p := New(8)
	hot, cold := mkProg(), mkProg()
	p.Add(hot, 2, "splice")
	p.Add(cold, 2, "insert")
	r := rand.New(rand.NewSource(5))
	var hotRef uint64
	for {
		pr, ref := p.PickRef(r)
		if pr == hot {
			hotRef = ref
			break
		}
	}
	for i := 0; i < 10; i++ {
		p.Reward(hotRef, 3)
	}
	if mass(p) <= 4 {
		t.Fatalf("lineage bonus not applied: total=%d", mass(p))
	}
	counts := map[*prog.Prog]int{}
	for i := 0; i < 4000; i++ {
		counts[p.Pick(r)]++
	}
	if counts[hot] < 2*counts[cold] {
		t.Fatalf("productive lineage not favored: hot=%d cold=%d", counts[hot], counts[cold])
	}
	// A long dry streak decays the bonus back toward the base weight.
	before := mass(p)
	for i := 0; i < 200; i++ {
		p.Reward(hotRef, 0)
	}
	if mass(p) >= before {
		t.Fatalf("dry lineage did not decay: %d -> %d", before, mass(p))
	}
	// Rewards on dead refs are no-ops.
	p.Reward(9999, 5)
}

// TestPoolLineageBonusCapped: one hot seed cannot grow without bound.
func TestPoolLineageBonusCapped(t *testing.T) {
	p := New(4)
	s := mkProg()
	p.Add(s, 1, "")
	r := rand.New(rand.NewSource(2))
	_, ref := p.PickRef(r)
	for i := 0; i < 1000; i++ {
		p.Reward(ref, 50)
	}
	if got := mass(p); got != 1+64 {
		t.Fatalf("bonus not capped: total=%d", got)
	}
}

// TestPoolOpProvenance: seeds remember the operator that bred them.
func TestPoolOpProvenance(t *testing.T) {
	p := New(4)
	p.Add(mkProg(), 1, "shuffle")
	p.Add(mkProg(), 2, "")
	ops := map[string]int{}
	for _, s := range p.Export() {
		ops[s.Op]++
	}
	if ops["shuffle"] != 1 || ops[""] != 1 {
		t.Fatalf("provenance lost: %v", ops)
	}
}

func TestPoolExportImportRoundTrip(t *testing.T) {
	p := New(8)
	progs := []*prog.Prog{namedProg("a"), namedProg("b"), namedProg("c")}
	p.Add(progs[0], 5, "splice")
	p.Add(progs[1], 2, "")
	p.Add(progs[2], 9, "insert")
	// Grow a lineage bonus on the weakest seed so Reconcile must carry
	// more than base priorities.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		_, ref := p.PickRef(r)
		p.Reward(ref, 1)
	}
	exp := p.Export()
	if len(exp) != 3 {
		t.Fatalf("exported %d seeds", len(exp))
	}
	for i := 1; i < len(exp); i++ {
		if exp[i].Weight() > exp[i-1].Weight() {
			t.Fatalf("export not weight-ordered: %+v", exp)
		}
	}
	q := New(8)
	if n, _ := q.Reconcile(exp); n != 3 {
		t.Fatalf("imported %d of 3", n)
	}
	if mass(q) != mass(p) {
		t.Fatalf("weight mass not preserved: %d vs %d", mass(q), mass(p))
	}
	if !equalExports(q.Export(), exp) {
		t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", q.Export(), exp)
	}
}

// equalExports compares export snapshots by state (Prog identity
// included).
func equalExports(a, b []SeedState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPoolImportRespectsCapacityAndRanking(t *testing.T) {
	exp := withText(
		SeedState{Prog: namedProg("a"), Prio: 9},
		SeedState{Prog: namedProg("b"), Prio: 7, Bonus: 1},
		SeedState{Prog: namedProg("c"), Prio: 1},
	)
	p := New(2)
	if n, _ := p.Reconcile(exp); n != 2 {
		t.Fatalf("imported %d into cap-2 pool", n)
	}
	got := p.Export()
	if got[0].Prio != 9 || got[1].Prio != 7 {
		t.Fatalf("wrong survivors: %+v", got)
	}
	// Invalid states are skipped, not admitted: no program, no text, a
	// non-positive priority.
	invalid := []SeedState{
		{Text: "d()\n", Prio: 50},
		{Prog: namedProg("e"), Prio: 50},
		withText(SeedState{Prog: namedProg("f"), Prio: 0})[0],
	}
	if n, _ := p.Reconcile(invalid); n != 0 {
		t.Fatal("invalid states admitted")
	}
}

// withText sets each state's Text to its program's rendering, as every
// producer of a state does.
func withText(states ...SeedState) []SeedState {
	for i := range states {
		states[i].Text = states[i].Prog.Serialize()
	}
	return states
}

func TestPoolImportClampsBonus(t *testing.T) {
	p := New(4)
	p.Reconcile(withText(
		SeedState{Prog: namedProg("a"), Prio: 3, Bonus: 10 * maxLineageBonus},
		SeedState{Prog: namedProg("b"), Prio: 3, Bonus: -17},
	))
	exp := p.Export()
	if exp[0].Bonus != maxLineageBonus || exp[1].Bonus != 0 {
		t.Fatalf("bonuses not clamped: %+v", exp)
	}
}

func TestPoolImportedLineageStaysRewardable(t *testing.T) {
	p := New(4)
	p.Reconcile(withText(SeedState{Prog: namedProg("a"), Prio: 4, Bonus: 2, Op: "splice"}))
	r := rand.New(rand.NewSource(3))
	_, ref := p.PickRef(r)
	p.Reward(ref, 5)
	exp := p.Export()
	if exp[0].Bonus != 7 {
		t.Fatalf("imported seed bonus not live: %+v", exp[0])
	}
	if exp[0].Op != "splice" {
		t.Fatalf("provenance lost: %+v", exp[0])
	}
}

// namedProg builds a program whose serialized text is distinct per
// name (Reconcile dedups by text, so mkProg's empty programs all
// collide).
func namedProg(name string) *prog.Prog {
	return &prog.Prog{Calls: []*prog.Call{{Sc: &prog.Syscall{Name: name}}}}
}

func TestReconcileDedupsByTextAndRaisesWeight(t *testing.T) {
	p := New(8)
	local := namedProg("a")
	p.Add(local, 5, "")
	p.Add(namedProg("b"), 2, "")

	remote := withText(
		SeedState{Prog: namedProg("a"), Prio: 9, Bonus: 1}, // duplicate, heavier: reconcile up
		SeedState{Prog: namedProg("b"), Prio: 1},           // duplicate, lighter: no demotion
		SeedState{Prog: namedProg("c"), Prio: 4, Op: "splice"},
		SeedState{Prog: namedProg("c"), Prio: 3}, // batch-internal duplicate, lighter
	)
	added, reconciled := p.Reconcile(remote)
	if added != 1 || reconciled != 1 {
		t.Fatalf("added=%d reconciled=%d, want 1/1", added, reconciled)
	}
	if p.Len() != 3 {
		t.Fatalf("pool holds %d seeds, want 3 (no duplicate copies)", p.Len())
	}
	weights := map[string]int{}
	byName := map[string]*prog.Prog{}
	for _, s := range p.Export() {
		weights[s.Prog.Calls[0].Sc.Name] = s.Weight()
		byName[s.Prog.Calls[0].Sc.Name] = s.Prog
	}
	if weights["a"] != 10 {
		t.Fatalf(`seed "a" weight %d, want 10 (raised to remote copy)`, weights["a"])
	}
	if byName["a"] != local {
		t.Fatal("reconciliation must keep the local program, not swap in the remote copy")
	}
	if weights["b"] != 2 {
		t.Fatalf(`seed "b" weight %d, want 2 (remote colder copy must not demote)`, weights["b"])
	}
	if weights["c"] != 4 {
		t.Fatalf(`seed "c" weight %d, want 4 (heavier batch copy first)`, weights["c"])
	}
	if mass(p) != int64(10+2+4) {
		t.Fatalf("weight mass %d, want 16", mass(p))
	}
}

func TestReconcilePickRespectsRaisedWeight(t *testing.T) {
	p := New(4)
	p.Add(namedProg("cold"), 1, "")
	p.Add(namedProg("hot"), 1, "")
	p.Reconcile(withText(SeedState{Prog: namedProg("hot"), Prio: 50}))
	r := rand.New(rand.NewSource(3))
	hot := 0
	for i := 0; i < 500; i++ {
		if pr := p.Pick(r); pr.Calls[0].Sc.Name == "hot" {
			hot++
		}
	}
	// Weight 50 vs 1: the hot seed must dominate selection.
	if hot < 400 {
		t.Fatalf("hot seed picked %d/500 times; raised weight not feeding Pick", hot)
	}
}

func TestReconcileAdmissionFollowsPolicy(t *testing.T) {
	p := New(2)
	p.Add(namedProg("a"), 5, "")
	p.Add(namedProg("b"), 4, "")
	// A weaker offer is rejected; a stronger one evicts the victim.
	added, _ := p.Reconcile(withText(
		SeedState{Prog: namedProg("c"), Prio: 3},
		SeedState{Prog: namedProg("d"), Prio: 6},
	))
	if added != 1 {
		t.Fatalf("added=%d, want 1 (only the outranking offer)", added)
	}
	names := map[string]bool{}
	for _, s := range p.Export() {
		names[s.Prog.Calls[0].Sc.Name] = true
	}
	if !names["a"] || !names["d"] || names["b"] || names["c"] {
		t.Fatalf("wrong survivors: %v", names)
	}
}

// TestExportOrder: Export lists the seeds by descending weight, ties in
// admission order, as a sort of a copy of the seeds by those keys does —
// through evictions and lineage rewards that reorder the heap.
func TestExportOrder(t *testing.T) {
	p := New(32)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 80; i++ {
		p.Add(mkProg(), 1+r.Intn(4), "")
		if _, ref := p.PickRef(r); i%3 == 0 {
			p.Reward(ref, r.Intn(3))
		}
	}
	want := append([]Seed(nil), p.seeds...)
	sort.Slice(want, func(i, j int) bool {
		if wi, wj := want[i].Weight(), want[j].Weight(); wi != wj {
			return wi > wj
		}
		return want[i].seq < want[j].seq
	})
	got := p.Export()
	if len(got) != len(want) {
		t.Fatalf("exported %d of %d seeds", len(got), len(want))
	}
	for i, s := range got {
		if s.Prog != want[i].Prog || s.Weight() != want[i].Weight() {
			t.Fatalf("export position %d holds weight %d, want the seed of weight %d admitted %d", i, s.Weight(), want[i].Weight(), want[i].seq)
		}
	}
}
