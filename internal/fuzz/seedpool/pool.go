// Package seedpool is the fuzzer's corpus-management subsystem: a
// bounded priority pool of coverage-increasing seed programs with
// O(log n) eviction, priority-proportional seed scheduling, and
// crash-repro triage (minimization). The fuzzing loop hands the pool
// every program that found new coverage; the pool decides what to
// keep, what to evict when full, and which seed to mutate next.
//
// Seeds carry the provenance of the mutation operator that produced
// them, and their scheduling weight is dynamic: Reward feedback adds
// a lineage bonus when mutating a seed keeps finding fresh blocks and
// decays it when the lineage runs dry, so Pick drifts toward the
// productive frontier of the corpus.
//
// All operations are deterministic given the caller's random stream,
// which is what lets sharded campaigns remain bitwise identical
// across worker counts.
package seedpool

import (
	"cmp"
	"math/rand"
	"slices"

	"kernelgpt/internal/prog"
)

// DefaultCapacity bounds the pool when New is given a non-positive
// capacity. It matches the seed-corpus bound the serial fuzzer used
// historically.
const DefaultCapacity = 512

// maxLineageBonus caps the dynamic weight a productive lineage can
// accumulate, so one hot seed cannot starve the rest of the corpus.
const maxLineageBonus = 64

// lineageMissWindow is the number of consecutive yield-less mutations
// after which a seed's lineage bonus decays by a quarter.
const lineageMissWindow = 8

// Seed is one retained corpus entry.
type Seed struct {
	Prog *prog.Prog
	// Prio is the base scheduling weight: the number of new blocks
	// the program contributed when it was admitted.
	Prio int
	// Op names the mutation operator that produced the program (""
	// for freshly generated seeds) — the per-seed provenance the
	// campaign Stats aggregate.
	Op string
	// bonus is the lineage bonus: new blocks found by mutations of
	// this seed, capped and decayed as the lineage dries up.
	bonus int
	// misses counts consecutive yield-less mutations since the last
	// bonus change.
	misses int
	// seq orders admissions; among equal weights the newer seed is
	// evicted first, so long-lived discoveries are sticky. It doubles
	// as the seed's stable ref for Reward.
	seq uint64
	// text memoises Prog.Serialize(): carried in by Reconcile, or
	// rendered by the first Export/Reconcile that needs it. Pooled
	// programs are immutable, so it never goes stale.
	text string
}

// Weight is the seed's current scheduling weight (base priority plus
// lineage bonus).
func (s *Seed) Weight() int { return s.Prio + s.bonus }

// identity returns the seed's text, rendering it on first use.
func (s *Seed) identity() string {
	if s.text == "" {
		s.text = s.Prog.Serialize()
	}
	return s.text
}

// Pool is a bounded seed corpus. Internally it is a min-heap ordered
// by (Weight, -seq) — the root is always the next eviction victim —
// overlaid with a Fenwick tree of weights over the heap slots, so
// eviction, weighted seed selection, and lineage reweighting are all
// O(log n).
//
// Pool is not safe for concurrent use; campaigns own one pool each.
type Pool struct {
	cap   int
	seeds []Seed
	// fen is a Fenwick (binary indexed) tree over heap slots; fen
	// prefix sums give cumulative weight mass for weighted Pick.
	fen   []int64
	total int64
	seq   uint64
	// slot maps a seed's stable ref (seq) to its current heap slot.
	slot map[uint64]int
}

// New returns an empty pool bounded to capacity seeds (DefaultCapacity
// when capacity <= 0).
func New(capacity int) *Pool {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Pool{cap: capacity, fen: make([]int64, capacity+1), slot: make(map[uint64]int)}
}

// Len returns the number of retained seeds.
func (p *Pool) Len() int { return len(p.seeds) }

// Add offers a program with the given priority (its new-coverage
// contribution) and the name of the mutation operator that produced
// it ("" for generated programs). Non-positive priorities are
// rejected. When the pool is full, the offer replaces the
// lowest-weight seed if it ranks strictly above it, otherwise it is
// rejected. O(log n).
//
// pr may be a Gen's scratch candidate: the pool keeps its own copy
// (prog.Prog.Detach) on admission only, so a rejected offer — almost
// every offer in a saturated campaign — costs no copy, and the caller
// may let the Gen overwrite pr either way. The copy holds only the
// calls the candidate owns; the frozen calls it shares with its seed
// and donor are kept by pointer. A heap-owned program is
// retained as is, like the ones Reconcile takes ownership
// of. What the pool retains it freezes (prog.Prog.Freeze): from then
// on the program is read-only for everyone, the caller that built it
// included.
func (p *Pool) Add(pr *prog.Prog, prio int, op string) bool {
	if prio <= 0 {
		return false
	}
	return p.admit(Seed{Prog: pr, Prio: prio, Op: op})
}

// admit runs the admission policy for a fully formed seed (possibly
// carrying an imported lineage bonus), assigning its seq. The program
// is detached and frozen only once the seed is in.
func (p *Pool) admit(s Seed) bool {
	s.seq = p.seq
	p.seq++
	w := int64(s.Weight())
	if len(p.seeds) < p.cap {
		s.Prog = retain(s.Prog)
		p.seeds = append(p.seeds, s)
		i := len(p.seeds) - 1
		p.slot[s.seq] = i
		p.fenAdd(i, w)
		p.total += w
		p.siftUp(i)
		return true
	}
	if !less(p.seeds[0], s) {
		// The victim outranks (or ties) the offer: keep the corpus.
		return false
	}
	delete(p.slot, p.seeds[0].seq)
	d := w - int64(p.seeds[0].Weight())
	p.fenAdd(0, d)
	p.total += d
	s.Prog = retain(s.Prog)
	p.seeds[0] = s
	p.slot[s.seq] = 0
	p.siftDown(0)
	return true
}

// retain returns the program the pool keeps for an admitted offer: its
// own copy of a scratch candidate (its owned calls copied, the frozen
// calls it shares with other seeds kept), a heap-owned program as is —
// frozen either way, which is what lets every later mutation share its
// calls instead of copying them. Freezing encodes only the calls that
// were not frozen yet.
func retain(pr *prog.Prog) *prog.Prog {
	pr = pr.Detach()
	pr.Freeze()
	return pr
}

// Pick returns a seed chosen with probability proportional to its
// weight, drawing from r. Returns nil on an empty pool. O(log n).
func (p *Pool) Pick(r *rand.Rand) *prog.Prog {
	pr, _ := p.PickRef(r)
	return pr
}

// PickRef is Pick plus the chosen seed's stable ref, which later
// Reward calls use to feed lineage results back. The ref stays valid
// until the seed is evicted; Reward on a dead ref is a no-op.
func (p *Pool) PickRef(r *rand.Rand) (*prog.Prog, uint64) {
	if len(p.seeds) == 0 || p.total <= 0 {
		return nil, 0
	}
	s := &p.seeds[p.fenFind(r.Int63n(p.total))]
	return s.Prog, s.seq
}

// Reward reports the outcome of mutating the seed identified by ref:
// newBlocks is the new coverage the mutation found (zero for a dry
// run). Productive lineages gain weight (capped); lineages that stay
// dry for lineageMissWindow consecutive mutations decay by a quarter
// of their bonus. O(log n) when the weight changes.
func (p *Pool) Reward(ref uint64, newBlocks int) {
	i, ok := p.slot[ref]
	if !ok {
		return
	}
	s := &p.seeds[i]
	var delta int
	if newBlocks > 0 {
		delta = newBlocks
		if s.bonus+delta > maxLineageBonus {
			delta = maxLineageBonus - s.bonus
		}
		s.misses = 0
	} else {
		s.misses++
		if s.misses >= lineageMissWindow && s.bonus > 0 {
			delta = -((s.bonus + 3) / 4)
			s.misses = 0
		}
	}
	if delta == 0 {
		return
	}
	s.bonus += delta
	p.fenAdd(i, int64(delta))
	p.total += int64(delta)
	// The weight change may violate the heap order; restore it.
	if delta > 0 {
		p.siftDown(i)
	} else {
		p.siftUp(i)
	}
}

// SeedState is one seed's persistable state: the program plus the
// scheduling weights that Export/Reconcile carry across campaigns (and
// that the corpus store serializes to disk).
type SeedState struct {
	// Prog is the program; nil in a text-only state (the hub's corpus).
	Prog *prog.Prog
	// Text is the seed's identity and is always set: the store's file
	// name and content, every dedupe key. It is the canonical rendering
	// (Prog.Serialize(), or prog.Canonical of itself in a text-only
	// state), never the text as parsed.
	Text string
	// Prio is the base scheduling weight (new blocks at admission).
	Prio int
	// Bonus is the lineage bonus at export time.
	Bonus int
	// Op is the operator provenance ("" for generated seeds).
	Op string
}

// Weight is the state's total scheduling weight.
func (s SeedState) Weight() int { return s.Prio + s.Bonus }

// Export snapshots the retained seeds with their priority and lineage
// state, in deterministic order: descending weight, then admission
// order. The snapshot shares Prog pointers with the pool; callers
// must not mutate them. Every state carries its Text; a seed is
// rendered by the first Export after its admission and never again.
func (p *Pool) Export() []SeedState {
	order := make([]int32, len(p.seeds))
	for i := range p.seeds {
		p.seeds[i].identity()
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, b := &p.seeds[i], &p.seeds[j]
		return cmp.Or(cmp.Compare(b.Weight(), a.Weight()), cmp.Compare(a.seq, b.seq))
	})
	out := make([]SeedState, len(order))
	for i, k := range order {
		s := &p.seeds[k]
		out[i] = SeedState{Prog: s.Prog, Text: s.text, Prio: s.Prio, Bonus: s.bonus, Op: s.Op}
	}
	return out
}

// Reconcile offers seeds to the pool — exports, store loads, hub
// pulls: its one way in besides Add — preserving priority and lineage
// state (bonuses are clamped to the lineage cap). Seeds are
// deduplicated by Text, within the batch and against the pool: a
// duplicate of a retained seed reconciles weights instead of admitting
// a second copy, raising the retained seed's priority and bonus to the
// incoming copy's when the incoming copy weighs more (weights never
// decrease — a remote's colder view must not demote a locally
// productive lineage). New programs go through the normal admission
// policy — a full pool keeps only offers that outrank its current
// victim. Into an empty pool, seeds with distinct texts are admitted
// exactly as offered, in order. A state without a program or Text is
// skipped like a non-positive priority: a pool holds programs to run.
// Returns seeds admitted and seeds reconciled upward.
//
// The pool takes ownership of the admitted programs, which are
// heap-owned: they are retained as is and frozen, and must not be
// mutated afterwards. Freezing writes to the program once, so a
// snapshot handed to several pools at a time (a sharded campaign's
// warm start) is frozen by its owner first.
//
// The text index is built from the seeds' memoised texts — the same
// memo Export fills, so a retained seed is rendered at most once in its
// life — and not at all for an empty batch, the steady state of a hub
// sync with nothing new.
func (p *Pool) Reconcile(seeds []SeedState) (added, reconciled int) {
	if len(seeds) == 0 {
		return 0, 0
	}
	index := make(map[string]uint64, len(p.seeds)+len(seeds))
	for i := range p.seeds {
		index[p.seeds[i].identity()] = p.seeds[i].seq
	}
	for _, st := range seeds {
		if st.Prog == nil || st.Text == "" || st.Prio <= 0 {
			continue
		}
		bonus := min(max(st.Bonus, 0), maxLineageBonus)
		if ref, ok := index[st.Text]; ok {
			if p.raiseWeight(ref, st.Prio, bonus) {
				reconciled++
			}
			continue
		}
		seq := p.seq // admit assigns this seq
		if p.admit(Seed{Prog: st.Prog, Prio: st.Prio, Op: st.Op, bonus: bonus, text: st.Text}) {
			index[st.Text] = seq
			added++
		}
	}
	return added, reconciled
}

// raiseWeight lifts the seed identified by ref to the given priority
// and bonus when they weigh more than its current state. Reports
// whether the weight changed.
func (p *Pool) raiseWeight(ref uint64, prio, bonus int) bool {
	i, ok := p.slot[ref]
	if !ok {
		return false
	}
	s := &p.seeds[i]
	if prio+bonus <= s.Weight() {
		return false
	}
	delta := int64(prio + bonus - s.Weight())
	s.Prio, s.bonus = prio, bonus
	p.fenAdd(i, delta)
	p.total += delta
	p.siftDown(i) // weight increased: may need to sink below children
	return true
}

// less orders eviction: lower weight first; among equals, the newer
// admission (higher seq) goes first.
func less(a, b Seed) bool {
	if aw, bw := a.Weight(), b.Weight(); aw != bw {
		return aw < bw
	}
	return a.seq > b.seq
}

// swap exchanges heap slots i and j and moves their weight mass in
// the Fenwick overlay.
func (p *Pool) swap(i, j int) {
	if d := int64(p.seeds[j].Weight() - p.seeds[i].Weight()); d != 0 {
		p.fenAdd(i, d)
		p.fenAdd(j, -d)
	}
	p.seeds[i], p.seeds[j] = p.seeds[j], p.seeds[i]
	p.slot[p.seeds[i].seq] = i
	p.slot[p.seeds[j].seq] = j
}

func (p *Pool) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(p.seeds[i], p.seeds[parent]) {
			return
		}
		p.swap(i, parent)
		i = parent
	}
}

func (p *Pool) siftDown(i int) {
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < len(p.seeds) && less(p.seeds[l], p.seeds[min]) {
			min = l
		}
		if r < len(p.seeds) && less(p.seeds[r], p.seeds[min]) {
			min = r
		}
		if min == i {
			return
		}
		p.swap(i, min)
		i = min
	}
}

// fenAdd adds delta to slot i's weight mass.
func (p *Pool) fenAdd(i int, delta int64) {
	for i++; i < len(p.fen); i += i & -i {
		p.fen[i] += delta
	}
}

// fenFind returns the smallest slot whose cumulative weight mass
// exceeds t (0 <= t < total), by binary-indexed descent.
func (p *Pool) fenFind(t int64) int {
	pos := 0
	// Largest power of two covering the tree.
	step := 1
	for step<<1 < len(p.fen) {
		step <<= 1
	}
	for ; step > 0; step >>= 1 {
		if next := pos + step; next < len(p.fen) && p.fen[next] <= t {
			t -= p.fen[next]
			pos = next
		}
	}
	// pos is the count of slots whose cumulative mass is <= t.
	if pos >= len(p.seeds) {
		pos = len(p.seeds) - 1
	}
	return pos
}
