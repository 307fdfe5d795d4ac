package fuzz

import (
	"bytes"
	"fmt"
	"testing"

	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// TestPooledSeedsImmutable runs 5000 steps of the campaign loop's
// pieces — every operator in turn, splice with the live pool as
// donor, a small pool so seeds get evicted — and asserts that every
// pooled seed serializes byte-identically from admission (where it
// must equal the candidate it was copied from) until it is evicted
// or the run ends, and lowers through its frozen payload cache to what
// a deep copy of it lowers to. Candidates share their seed's and their
// donor's calls; nothing may write through to either.
func TestPooledSeedsImmutable(t *testing.T) {
	tgt := plumbedTarget(t, "dm", "cec")
	g := prog.NewGen(tgt, 1)
	vm := testKernel.NewVM()
	pool := seedpool.New(16)
	cover := vkernel.NewCoverSet(testKernel.NumBlocks())
	ops := prog.DefaultOperators()
	mctx := &prog.MutateCtx{MaxCalls: 8, Donor: func() *prog.Prog { return pool.Pick(g.R) }}
	var ep prog.ExecProg
	var cov []vkernel.BlockID

	texts := map[*prog.Prog]string{} // pooled seed → text at admission
	evicted := 0
	// sweep checks every pooled seed against its admission text,
	// records newcomers (returning the last one), and forgets (and
	// counts) evictees.
	sweep := func(step int) *prog.Prog {
		var fresh *prog.Prog
		live := map[*prog.Prog]bool{}
		for _, s := range pool.Export() {
			live[s.Prog] = true
			got := s.Prog.Serialize()
			want, known := texts[s.Prog]
			if !known {
				texts[s.Prog], fresh = got, s.Prog
			} else if got != want {
				t.Fatalf("step %d: pooled seed changed after admission:\n%s\nwas\n%s", step, got, want)
			}
			if err := sameLowering(compileExec(s.Prog), compileExec(s.Prog.Clone())); err != nil {
				t.Fatalf("step %d: pooled seed's cached lowering is stale: %v\n%s", step, err, got)
			}
		}
		for p := range texts {
			if !live[p] {
				delete(texts, p)
				evicted++
			}
		}
		return fresh
	}

	applied := map[string]int{}
	for i := 0; i < 5000; i++ {
		var p *prog.Prog
		opName := ""
		if pool.Len() > 0 && g.R.Float64() < 0.7 {
			seed, _ := pool.PickRef(g.R)
			var op prog.Operator
			p, op = g.MutateOp(seed, ops[i%len(ops)], mctx)
			if op != nil {
				opName = op.Name()
				applied[opName]++
			}
			if got := seed.Serialize(); got != texts[seed] {
				t.Fatalf("step %d: %s wrote through to its seed:\n%s\nwas\n%s", i, opName, got, texts[seed])
			}
		} else {
			p = g.Generate(8)
		}
		prog.CompileExecInto(p, &ep)
		vm.RunCompiled(&ep)
		cov = vm.AppendCover(cov[:0])
		newBlocks := 0
		for _, b := range cov {
			if cover.Add(b) {
				newBlocks++
			}
		}
		if pool.Add(p, newBlocks, opName) {
			fresh := sweep(i)
			if fresh == nil || fresh == p {
				t.Fatalf("step %d: admitted candidate was not copied out of the scratch arena", i)
			}
			if texts[fresh] != p.Serialize() {
				t.Fatalf("step %d: pooled copy differs from the admitted candidate", i)
			}
		} else if i%250 == 0 {
			sweep(i) // donors are read every splice; catch a write soon after it happens
		}
	}
	sweep(5000)
	for _, op := range ops {
		if applied[op.Name()] == 0 {
			t.Errorf("operator %s never applied", op.Name())
		}
	}
	if evicted == 0 {
		t.Error("no seed was ever evicted; the until-eviction half went untested")
	}
}

// compileExec lowers p into a fresh ExecProg.
func compileExec(p *prog.Prog) *prog.ExecProg {
	ep := &prog.ExecProg{}
	prog.CompileExecInto(p, ep)
	return ep
}

// sameLowering compares what an executor reads of two compiled
// programs.
func sameLowering(a, b *prog.ExecProg) error {
	if len(a.Calls) != len(b.Calls) {
		return fmt.Errorf("%d calls vs %d", len(a.Calls), len(b.Calls))
	}
	for i := range a.Calls {
		ca, cb := a.Calls[i], b.Calls[i]
		if ca.Sc != cb.Sc || len(ca.Args) != len(cb.Args) || !bytes.Equal(ca.Path, cb.Path) {
			return fmt.Errorf("call %d: descriptor, arity or path differ", i)
		}
		for j := range ca.Args {
			if x, y := ca.Args[j], cb.Args[j]; x.Scalar != y.Scalar || x.Res != y.Res || !bytes.Equal(x.Blob, y.Blob) {
				return fmt.Errorf("call %d arg %d: {%#x r%d %x} vs {%#x r%d %x}", i, j, x.Scalar, x.Res, x.Blob, y.Scalar, y.Res, y.Blob)
			}
		}
	}
	return nil
}

// TestStaleLensSeedStaysUnfrozen: a stored or pushed program whose len
// fields are wrong (a hand-edited store file, a foreign hub) enters the
// pool as it is — its text is its identity — and every candidate
// mutated from it has all lens fixed, exactly as when mutation deep-
// copied every seed: the stale call is never shared, the seed never
// repaired in place.
func TestStaleLensSeedStaysUnfrozen(t *testing.T) {
	tgt := plumbedTarget(t, "dm", "cec")
	g := prog.NewGen(tgt, 3)
	var stale *prog.Prog
	for stale == nil {
		p := g.Generate(8).Detach()
		for _, c := range p.Calls {
			c.ForEachValue(func(v *prog.Value) {
				if stale == nil && v.Type.Kind == prog.KindLen {
					v.Scalar += 5
					if fixed := p.Clone(); fixupAll(fixed) != p.Serialize() {
						stale = p
					} else {
						v.Scalar -= 5
					}
				}
			})
		}
	}
	text := stale.Serialize()
	loaded, err := prog.Deserialize(tgt, text)
	if err != nil {
		t.Fatal(err)
	}
	if fixupAll(loaded.Clone()) == text {
		t.Fatal("the stale len did not survive the text round trip")
	}
	pool := seedpool.New(4)
	if n, _ := pool.Reconcile([]seedpool.SeedState{{Prog: loaded, Text: text, Prio: 3}}); n != 1 {
		t.Fatalf("imported %d seeds, want 1", n)
	}
	pooled := pool.Export()[0].Prog
	if pooled != loaded {
		t.Fatal("a heap-owned import must be retained by pointer")
	}
	oracle := loaded.Clone() // unfrozen: every call deep-copied, as before
	ops := prog.DefaultOperators()
	g1, g2 := prog.NewGen(tgt, 11), prog.NewGen(tgt, 11)
	for i := 0; i < 200; i++ {
		op := ops[i%len(ops)]
		m, _ := g1.MutateOp(pooled, op, nil)
		want, _ := g2.MutateOp(oracle, op, nil)
		if got := m.Serialize(); got != want.Serialize() {
			t.Fatalf("step %d (%s): candidate from the pooled stale seed differs from the deep-copy candidate:\n%s\nvs\n%s", i, op.Name(), got, want.Serialize())
		}
		if got := m.Serialize(); fixupAll(m.Clone()) != got {
			t.Fatalf("step %d (%s): candidate still carries a stale len:\n%s", i, op.Name(), got)
		}
		if loaded.Serialize() != text {
			t.Fatalf("step %d (%s): the stale seed was repaired in place", i, op.Name())
		}
	}
}

// fixupAll runs FixupLens over p and returns the resulting text.
func fixupAll(p *prog.Prog) string {
	for _, c := range p.Calls {
		c.FixupLens()
	}
	return p.Serialize()
}

// TestAdmittedSeedOutlivesScratch: a candidate the pool admits keeps
// its bytes while the Gen that built it moves on, and a heap-owned
// program is retained by pointer, not copied.
func TestAdmittedSeedOutlivesScratch(t *testing.T) {
	tgt := plumbedTarget(t, "dm", "cec")
	g := prog.NewGen(tgt, 2)
	pool := seedpool.New(8)
	cand := g.Generate(8)
	text := cand.Serialize()
	if !pool.Add(cand, 3, "") {
		t.Fatal("offer to an empty pool rejected")
	}
	heap := g.Generate(8).Detach()
	if !pool.Add(heap, 2, "") {
		t.Fatal("second offer rejected below capacity")
	}
	var kept *prog.Prog
	heapKept := false
	for _, s := range pool.Export() {
		if s.Prog == heap {
			heapKept = true
		} else {
			kept = s.Prog
		}
	}
	if !heapKept {
		t.Fatal("a heap-owned program must be retained by pointer")
	}
	if kept == nil || kept == cand {
		t.Fatal("a scratch candidate must be copied on admission")
	}
	ops := prog.DefaultOperators()
	mctx := &prog.MutateCtx{MaxCalls: 8, Donor: func() *prog.Prog { return pool.Pick(g.R) }}
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			g.Generate(8)
		} else {
			g.MutateOp(pool.Pick(g.R), ops[i%len(ops)], mctx)
		}
	}
	if got := kept.Serialize(); got != text {
		t.Fatalf("admitted seed changed under later Generate/MutateOp calls:\n%s\nwas\n%s", got, text)
	}
}
