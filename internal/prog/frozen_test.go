package prog

import "testing"

// mutationSide is one half of the deep-copy oracle: a seed and its
// splice donors — all frozen (calls shared with every candidate) or all
// unfrozen (every call deep-copied, the path that needs no ownership
// rule) — with a Gen of their own.
type mutationSide struct {
	g      *Gen
	seed   *Prog
	donors []*Prog
	ctx    *MutateCtx
}

func newMutationSide(tgt *Target, seed *Prog, donors []*Prog, mutSeed int64) *mutationSide {
	s := &mutationSide{g: NewGen(tgt, mutSeed), seed: seed, donors: donors}
	s.ctx = &MutateCtx{MaxCalls: 8, Donor: func() *Prog { return s.donors[s.g.R.Intn(len(s.donors))] }}
	return s
}

// mutate applies first and then stacked-1 operators drawn from the
// side's RNG to one scratch copy of the seed, so a later operator
// lands on calls an earlier one already partly owns. first == nil
// draws the first operator from the side's RNG too.
func (s *mutationSide) mutate(first Operator, stacked int) *Prog {
	ops := DefaultOperators()
	m := s.g.scratchCopy(s.seed)
	op := first
	for i := 0; i < stacked; i++ {
		if op == nil {
			op = ops[s.g.R.Intn(len(ops))]
		}
		if !op.Apply(s.g, m, s.ctx) {
			s.g.fallbackMutate(m, s.ctx)
		}
		op = nil
	}
	return s.g.finishMutation(m, 8)
}

// frozenVsClone is the deep-copy oracle. One mutation of a frozen seed
// and the same mutation of an unfrozen copy of it, on identically
// seeded Gens, must give the same candidate and consume the same
// randomness; the candidate must validate and lower to what its tree
// says; and neither the frozen seed, its donors nor their cached
// payloads may have changed.
func frozenVsClone(t *testing.T, tgt *Target, genSeed, mutSeed int64, first Operator, stacked int) {
	t.Helper()
	name := "random"
	if first != nil {
		name = first.Name()
	}
	defer func() {
		if t.Failed() {
			t.Logf("%s x%d, generator seed %d, mutation seed %d", name, stacked, genSeed, mutSeed)
		}
	}()
	g0 := NewGen(tgt, genSeed)
	plain := []*Prog{g0.Generate(8).Detach()} // the seed, then its donors
	for i := 0; i < 3; i++ {
		plain = append(plain, g0.Generate(6).Detach())
	}
	frozen := make([]*Prog, len(plain))
	texts := make([]string, len(plain))
	for i, p := range plain {
		frozen[i], texts[i] = p.Clone(), p.Serialize()
		frozen[i].Freeze()
		for _, c := range frozen[i].Calls {
			if c.lowered == nil {
				t.Fatalf("a generated call did not freeze:\n%s", texts[i])
			}
		}
	}
	fr := newMutationSide(tgt, frozen[0], frozen[1:], mutSeed)
	cl := newMutationSide(tgt, plain[0], plain[1:], mutSeed)
	mf, mc := fr.mutate(first, stacked), cl.mutate(first, stacked)
	if tf, tc := mf.Serialize(), mc.Serialize(); tf != tc {
		t.Fatalf("candidates differ:\nfrom the frozen seed:\n%s\nfrom the unfrozen seed:\n%s\nseed:\n%s", tf, tc, texts[0])
	}
	if err := mf.Validate(tgt); err != nil {
		t.Fatalf("candidate invalid: %v\n%s", err, mf.Serialize())
	}
	if a, b := fr.g.R.Int63(), cl.g.R.Int63(); a != b {
		t.Fatalf("RNG streams diverged")
	}
	checkLowering(t, mf) // shared calls through their cache, owned ones encoded
	for i, p := range frozen {
		if got := p.Serialize(); got != texts[i] {
			t.Fatalf("a write leaked into frozen program %d:\n%s\nwas\n%s", i, got, texts[i])
		}
		checkLowering(t, p) // the cache still says what the tree says
	}
}

// TestFrozenMutationMatchesDeepCopy runs the oracle for every operator
// (single, then stacked, so a second operator meets partly owned
// calls) and for randomly drawn operators over 200 seeds of the deep
// and the plumbed target. It fails when any operator writes a value it does not own —
// the write shows in the seed — or skips a len it should own.
func TestFrozenMutationMatchesDeepCopy(t *testing.T) {
	for _, bt := range benchTargets {
		tgt := bt.tgt(t)
		for _, op := range append([]Operator{nil}, DefaultOperators()...) {
			for seed := int64(0); seed < 200; seed++ {
				frozenVsClone(t, tgt, seed, 1000+seed, op, 1+int(seed%3))
			}
		}
	}
}

// FuzzMutateFrozen searches (generator seed, operator, mutation seed,
// stacked-operator count) for a mutation the oracle rejects; the
// committed corpus has one entry per operator and one for a randomly
// drawn first operator.
func FuzzMutateFrozen(f *testing.F) {
	tgt := deepTarget(f)
	f.Fuzz(func(t *testing.T, genSeed int64, opIdx uint8, mutSeed int64, stacked uint8) {
		modes := append([]Operator{nil}, DefaultOperators()...)
		frozenVsClone(t, tgt, genSeed, mutSeed, modes[int(opIdx)%len(modes)], 1+int(stacked%3))
	})
}

// TestFreezeAllocs pins what freezing and sharing cost: one allocation
// to freeze a program, whatever its size, and none to lower a
// candidate that shares its seed's calls.
func TestFreezeAllocs(t *testing.T) {
	for _, bt := range benchTargets {
		tgt := bt.tgt(t)
		g := NewGen(tgt, 5)
		const runs = 20
		fresh := make([]*Prog, runs+1) // AllocsPerRun adds a warm-up call
		for i := range fresh {
			fresh[i] = g.Generate(8).Detach()
		}
		next := 0
		if per := testing.AllocsPerRun(runs, func() { fresh[next].Freeze(); next++ }); per != 1 {
			t.Errorf("%s: Freeze costs %.2f allocations per program, want 1", bt.name, per)
		}
		if per := testing.AllocsPerRun(runs, func() { fresh[0].Freeze() }); per != 0 {
			t.Errorf("%s: freezing a frozen program costs %.2f allocations, want 0", bt.name, per)
		}
		var ep ExecProg
		for _, op := range DefaultOperators() {
			ctx := &MutateCtx{MaxCalls: 8, Donor: func() *Prog { return fresh[1] }}
			m, _ := g.MutateOp(fresh[0], op, ctx)
			shared := 0
			for _, c := range m.Calls {
				if c.lowered != nil {
					shared++
				}
			}
			if shared == 0 && len(fresh[0].Calls) > 1 && op.Name() == "mutateArg" {
				t.Errorf("%s: a mutateArg candidate shares no call with its %d-call seed", bt.name, len(fresh[0].Calls))
			}
			CompileExecInto(m, &ep) // grow ep's arenas once
			if per := testing.AllocsPerRun(runs, func() { CompileExecInto(m, &ep) }); per != 0 {
				t.Errorf("%s/%s: CompileExecInto of a candidate with %d shared calls costs %.2f allocations, want 0", bt.name, op.Name(), shared, per)
			}
		}
	}
}

// TestFreezeLeavesStaleLensAlone: a call whose len fields FixupLens
// would change is not frozen (mutation must fix them in a copy, never
// in the seed); its well-formed neighbours are.
func TestFreezeLeavesStaleLensAlone(t *testing.T) {
	tgt := deepTarget(t)
	g := NewGen(tgt, 9)
	for i := 0; i < 50; i++ {
		p := g.Generate(8).Detach()
		var lens []*Value
		victim := -1
		for ci, c := range p.Calls {
			c.ForEachValue(func(v *Value) {
				if v.Type.Kind == KindLen && (victim < 0 || victim == ci) {
					victim = ci
					lens = append(lens, v)
				}
			})
		}
		if victim < 0 || len(p.Calls) < 2 {
			continue
		}
		lens[len(lens)-1].Scalar += 3
		if !p.Calls[victim].fixLens(false) {
			continue // a len without a sibling target is never fixed up
		}
		text := p.Serialize()
		p.Freeze()
		for ci, c := range p.Calls {
			if frozen := c.lowered != nil; frozen == (ci == victim) {
				t.Fatalf("call %d of %d: frozen=%v, stale call is %d", ci, len(p.Calls), frozen, victim)
			}
		}
		m, _ := g.MutateOp(p, OpInsert{}, nil)
		for ci, c := range m.Calls {
			if c.fixLens(false) {
				t.Fatalf("candidate call %d still has a stale len", ci)
			}
		}
		if p.Serialize() != text {
			t.Fatal("mutation fixed the stale len in the seed itself")
		}
		return
	}
	t.Fatal("no generated program had a len field and two calls")
}

// TestHoldsMatchesWalk: the per-type kind set that prunes the len,
// rebinding and mutation-site walks must contain every kind a full walk
// finds under a value of that type, for generated and mutated values;
// and every kind must turn up somewhere, so no bit goes unchecked.
func TestHoldsMatchesWalk(t *testing.T) {
	var seen kindSet
	for _, tgt := range []*Target{deepTarget(t), plumbedTarget(t), testTarget(t), resTarget(t), shapeTarget(t)} {
		g := NewGen(tgt, 6)
		ops := DefaultOperators()
		var found func(v *Value) kindSet
		found = func(v *Value) kindSet {
			if v == nil {
				return 0
			}
			under := v.Type.Kind.set() | found(v.Ptr)
			for _, f := range v.Fields {
				under |= found(f)
			}
			if missing := under &^ v.Type.holds; missing != 0 {
				t.Fatalf("%v holds kinds %b that its type's holds %b lacks", v.Type, missing, v.Type.holds)
			}
			return under
		}
		for i := 0; i < 200; i++ {
			p := g.Generate(8)
			if i%2 == 1 {
				p, _ = g.MutateOp(p, ops[i%len(ops)], nil)
			}
			for _, c := range p.Calls {
				for _, a := range c.Args {
					seen |= found(a)
				}
			}
		}
	}
	if seen != allKinds {
		t.Fatalf("walks found kinds %b, want every kind %b", seen, allKinds)
	}
}
