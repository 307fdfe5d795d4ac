package vkernel

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kernelgpt/internal/prog"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// contractChain is one execution path's running fingerprint: a sha256
// chain over every program's (sorted cover blocks, crash title, errno),
// with the hash noted at fixed step boundaries so a divergence is
// localized.
type contractChain struct {
	sum     [sha256.Size]byte
	steps   int
	crashes int
	errno   int
	out     strings.Builder
}

const contractMarkEvery = 500

func (c *contractChain) fold(seed int64, cov []BlockID, crash *Crash, errno int) {
	h := sha256.New()
	h.Write(c.sum[:])
	var b [4]byte
	for _, blk := range cov {
		binary.LittleEndian.PutUint32(b[:], uint32(blk))
		h.Write(b[:])
	}
	if crash != nil {
		h.Write([]byte(crash.Title))
		c.crashes++
	}
	binary.LittleEndian.PutUint32(b[:], uint32(errno))
	h.Write(b[:])
	h.Sum(c.sum[:0])
	c.errno += errno
	c.steps++
	if c.steps%contractMarkEvery == 0 {
		fmt.Fprintf(&c.out, "seed=%d step=%d sha256=%x\n", seed, c.steps, c.sum)
	}
}

func (c *contractChain) finish(seed int64) {
	fmt.Fprintf(&c.out, "seed=%d progs=%d crashes=%d errno=%d\n", seed, c.steps, c.crashes, c.errno)
	c.sum, c.steps, c.crashes, c.errno = [sha256.Size]byte{}, 0, 0, 0
}

// TestExecContract pins the executor's observable behaviour: for seeds
// 1–5, 2032 generated and 2000 mutated programs (every operator, with
// splice donors) on the full bundled-handler + plumbing target must
// produce exactly the coverage, crash verdict and errno count recorded
// in testdata/exec_contract.txt — through VM.Run and through
// CompileExecInto + RunCompiled + AppendCover alike. The
// file was recorded with the tree-walking interpreter at the commit
// before it was deleted, so it is the reference the one remaining
// path answers to. Re-recording it (-update) is a fingerprint bump and
// needs the same review as one.
func TestExecContract(t *testing.T) {
	tgt := fullPlumbedTarget(t)
	ops := prog.DefaultOperators()
	var viaVM, viaCompiled contractChain
	chains := []struct {
		name string
		c    *contractChain
	}{{"VM.Run", &viaVM}, {"RunCompiled", &viaCompiled}}
	vm, cvm := testKernel.NewVM(), testKernel.NewVM()
	var ep prog.ExecProg
	var cov []BlockID
	crashes := 0
	for seed := int64(1); seed <= 5; seed++ {
		g := prog.NewGen(tgt, seed)
		run := func(p *prog.Prog) {
			res := vm.Run(p)
			viaVM.fold(seed, res.Cov, res.Crash, res.Errno)
			prog.CompileExecInto(p, &ep)
			crash, errno := cvm.RunCompiled(&ep)
			cov = cvm.AppendCover(cov[:0])
			viaCompiled.fold(seed, cov, crash, errno)
		}
		// Mutation seeds and splice donors come from a ring of the most
		// recent generated programs, filled before the first mutation.
		var ring [32]*prog.Prog
		for i := range ring {
			ring[i] = g.Generate(2 + i%12).Detach()
			run(ring[i])
		}
		pick := func() *prog.Prog { return ring[g.R.Intn(len(ring))] }
		mctx := &prog.MutateCtx{MaxCalls: 10, Donor: pick}
		for i := 0; i < 2000; i++ {
			p := g.Generate(2 + i%12)
			ring[i%len(ring)] = p.Detach()
			run(p)
			p, _ = g.MutateOp(pick(), ops[i%len(ops)], mctx)
			run(p)
		}
		crashes += viaVM.crashes
		for _, ch := range chains {
			ch.c.finish(seed)
		}
	}
	if crashes == 0 {
		t.Fatal("contract corpus never crashed; the crash path went untested")
	}
	path := filepath.Join("testdata", "exec_contract.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(viaVM.out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chains {
		gl, wl := strings.Split(ch.c.out.String(), "\n"), strings.Split(string(want), "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				g := "<missing>"
				if i < len(gl) {
					g = gl[i]
				}
				t.Fatalf("%s diverged from the recorded contract at line %d:\n got %s\nwant %s", ch.name, i+1, g, wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Fatalf("%s produced %d lines, contract has %d", ch.name, len(gl), len(wl))
		}
	}
}

// FuzzDeserializeExec covers program text arriving from outside the
// process (syzfuzz -repro, corpus-store load, hub imports): whatever
// prog.Deserialize accepts must lower and run without panicking, and
// VM.Run must agree with RunCompiled on a second, fresh VM.
func FuzzDeserializeExec(f *testing.F) {
	tgt := fullPlumbedTarget(f)
	g := prog.NewGen(tgt, 29)
	for i := 0; i < 32; i++ {
		f.Add([]byte(g.Generate(2 + i%12).Serialize()))
	}
	_, chain := cecChainProg(f)
	f.Add([]byte(chain.Serialize()))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := prog.Deserialize(tgt, string(data))
		if err != nil {
			return
		}
		want := testKernel.NewVM().Run(p)
		vm := testKernel.NewVM()
		crash, errno := vm.RunCompiled(compileExec(p))
		if cov := vm.AppendCover(nil); !sameCov(want.Cov, cov) || !sameCrash(want.Crash, crash) || want.Errno != errno {
			t.Fatalf("VM.Run and RunCompiled disagree on:\n%s\nRun {cov %d, crash %+v, errno %d} vs RunCompiled {cov %d, crash %+v, errno %d}",
				p.Serialize(), len(want.Cov), want.Crash, want.Errno, len(cov), crash, errno)
		}
	})
}
