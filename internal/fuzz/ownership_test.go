package fuzz

import (
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
// or the run ends. Mutation works on the Gen's scratch copy; nothing
// may write through to a seed or a donor.
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
	// sweep checks every pooled seed against its admission text,
	// records newcomers (returning the last one), and forgets evictees.
	sweep := func(step int) *prog.Prog {
		var fresh *prog.Prog
		live := map[*prog.Prog]bool{}
		pool.ForEach(func(s seedpool.Seed) {
			live[s.Prog] = true
			got := s.Prog.Serialize()
			want, known := texts[s.Prog]
			if !known {
				texts[s.Prog], fresh = got, s.Prog
			} else if got != want {
				t.Fatalf("step %d: pooled seed changed after admission:\n%s\nwas\n%s", step, got, want)
			}
		})
		for p := range texts {
			if !live[p] {
				delete(texts, p)
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
	if _, evicted, _ := pool.Stats(); evicted == 0 {
		t.Error("no seed was ever evicted; the until-eviction half went untested")
	}
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
	pool.ForEach(func(s seedpool.Seed) {
		if s.Prog == heap {
			heapKept = true
		} else {
			kept = s.Prog
		}
	})
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
