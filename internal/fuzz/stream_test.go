package fuzz

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// streamRecorder is a campaign executor that folds every candidate's
// serialized text into a running hash before executing it, and notes
// the hash at fixed step boundaries so a divergence is localized.
type streamRecorder struct {
	vm    *vkernel.VM
	sum   [sha256.Size]byte
	steps int
	marks []string
	// dmIoctls counts the dm_ioctl payloads (257 int8s in byte runs) the
	// recorded candidates carry.
	dmIoctls int
}

const streamMarkEvery = 250

func (r *streamRecorder) Run(p *prog.Prog) *vkernel.Result {
	h := sha256.New()
	h.Write(r.sum[:])
	h.Write([]byte(p.Serialize()))
	h.Sum(r.sum[:0])
	for _, c := range p.Calls {
		for _, a := range c.Args {
			if a.Type.Kind == prog.KindPtr && a.Ptr != nil && a.Ptr.Type.StructName == "dm_ioctl" {
				r.dmIoctls++
			}
		}
	}
	r.steps++
	if r.steps%streamMarkEvery == 0 {
		r.marks = append(r.marks, fmt.Sprintf("step=%d sha256=%x", r.steps, r.sum))
	}
	return r.vm.Run(p)
}

// TestCandidateStreamContract pins the RNG stream contract: the exact
// sequence of candidate programs the real campaign loop generates,
// mutates, and executes — for seeds 1–5 over 2000 steps on the
// plumbed dm+cec target — is byte-identical to the chain of hashes in
// testdata/stream_contract.txt. The file was recorded at the commit
// before candidates moved into the Gen scratch arena; any change to
// the order or arguments of a g.R draw, to generation, to an operator,
// to seed admission, or to seed scheduling moves it. Re-recording it
// (-update) is a fingerprint bump and needs the same review as one.
func TestCandidateStreamContract(t *testing.T) {
	tgt := plumbedTarget(t, "dm", "cec")
	var got strings.Builder
	for seed := int64(1); seed <= 5; seed++ {
		rec := &streamRecorder{vm: testKernel.NewVM()}
		f := New(tgt, testKernel)
		f.NewExecutor = func() vkernel.Executor { return rec }
		cfg := DefaultConfig(2000, seed)
		cfg.NoTriage = true // triage trials would interleave with candidates
		st := f.Run(cfg)
		if rec.steps != 2000 {
			t.Fatalf("seed %d: recorded %d candidates, want 2000", seed, rec.steps)
		}
		if rec.dmIoctls == 0 {
			t.Fatalf("seed %d: no candidate carried a dm_ioctl, so the contract does not cover scalar runs", seed)
		}
		for _, m := range rec.marks {
			fmt.Fprintf(&got, "seed=%d %s\n", seed, m)
		}
		fmt.Fprintf(&got, "seed=%d cover=%d corpus=%d\n", seed, st.CoverCount(), st.CorpusSize)
	}
	path := filepath.Join("testdata", "stream_contract.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range wl {
		if i >= len(gl) || gl[i] != wl[i] {
			g := "<missing>"
			if i < len(gl) {
				g = gl[i]
			}
			t.Fatalf("candidate stream diverged from the recorded contract at line %d:\n got %s\nwant %s", i+1, g, wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("candidate stream has %d lines, contract has %d", len(gl), len(wl))
	}
}
