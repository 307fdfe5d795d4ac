package seedpool_test

import (
	"slices"
	"sort"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/vkernel"
)

// deepTarget is the test corpus's dm+cec oracle target (few syscalls,
// large nested structs) and the corpus it was compiled from.
func deepTarget(tb testing.TB) (*prog.Target, *corpus.Corpus) {
	tb.Helper()
	c := corpus.Build(corpus.TestConfig())
	f := &syzlang.File{}
	for _, n := range []string{"dm", "cec"} {
		f.Merge(corpus.OracleSpec(c.Handler(n)))
	}
	tgt, err := prog.Compile(f, c.Env())
	if err != nil {
		tb.Fatal(err)
	}
	return tgt, c
}

// deepCrashSet is the crash set BenchmarkMinimize/deep minimizes: every
// raw repro a 6000-exec, seed-3 campaign on the deep target finds, in
// title order, with the kernel it crashes.
func deepCrashSet(t *testing.T) (*vkernel.Kernel, []*prog.Prog, []string) {
	t.Helper()
	tgt, c := deepTarget(t)
	kernel := vkernel.New(c)
	cfg := fuzz.DefaultConfig(6000, 3)
	cfg.NoTriage = true
	crashes := fuzz.New(tgt, kernel).Run(cfg).Crashes
	titles := make([]string, 0, len(crashes))
	for title := range crashes {
		titles = append(titles, title)
	}
	sort.Strings(titles)
	repros := make([]*prog.Prog, len(titles))
	for i, title := range titles {
		var err error
		if repros[i], err = prog.Deserialize(tgt, crashes[title].Repro); err != nil {
			t.Fatal(err)
		}
	}
	if len(repros) == 0 {
		t.Fatal("the deep campaign found no crash")
	}
	return kernel, repros, titles
}

// runOnly hides the VM's crash-only run from Reproduces: triage
// through it takes the path every non-VM Executor takes.
type runOnly struct{ vm *vkernel.VM }

func (x runOnly) Run(p *prog.Prog) *vkernel.Result { return x.vm.Run(p) }

// TestMinimizeMatchesReference: Minimize, whose removal trials edit its
// clone in place, returns the repro the clone-every-trial reference
// returns, byte for byte, for every crash of the deep set — on a VM,
// whose trials run crash-only, and on an Executor that offers only Run.
func TestMinimizeMatchesReference(t *testing.T) {
	kernel, repros, titles := deepCrashSet(t)
	vm := kernel.NewVM()
	for i, p := range repros {
		want := seedpool.MinimizeReference(runOnly{kernel.NewVM()}, p, titles[i]).Serialize()
		for _, x := range []vkernel.Executor{vm, runOnly{vm}} {
			if got := seedpool.Minimize(x, p, titles[i]).Serialize(); got != want {
				t.Fatalf("%s, %T: Minimize gave\n%s\nthe reference gave\n%s", titles[i], x, got, want)
			}
		}
	}
}

// TestRejectedRemovalRestoresCur walks each deep repro's removal chain
// the way Minimize does. At every step a pass of rejected trials must
// run exactly the reference's legal trials, in order, and leave the
// program serializing byte-identically with its bindings unchanged;
// and Minimize must never write its input.
func TestRejectedRemovalRestoresCur(t *testing.T) {
	kernel, repros, titles := deepCrashSet(t)
	vm := kernel.NewVM()
	steps, shifted := 0, 0
	for i, p := range repros {
		input, inputBindings := p.Serialize(), seedpool.Bindings(p)
		cur := p.Clone()
		for {
			text, binds := cur.Serialize(), seedpool.Bindings(cur)
			var want []string
			for drop := range cur.Calls {
				if ref, ok := seedpool.WithoutCallReference(cur, drop); ok && len(cur.Calls) > 1 {
					want = append(want, ref.Serialize())
					if slices.ContainsFunc(binds, func(b int) bool { return b > drop }) {
						shifted++ // a later call's binding shifts down
					}
				}
			}
			var trials []string
			if seedpool.RemoveOneCall(seedpool.Rejecting(&trials), cur, titles[i]) {
				t.Fatalf("%s: a removal no trial reproduces was kept", titles[i])
			}
			if !slices.Equal(trials, want) {
				t.Fatalf("%s: the trials ran\n%q\nthe reference's legal trials are\n%q", titles[i], trials, want)
			}
			if got := cur.Serialize(); got != text {
				t.Fatalf("%s: rejected trials left\n%s\nwas\n%s", titles[i], got, text)
			}
			if got := seedpool.Bindings(cur); !slices.Equal(got, binds) {
				t.Fatalf("%s: rejected trials left bindings %v, were %v", titles[i], got, binds)
			}
			steps++
			if !seedpool.RemoveOneCall(vm, cur, titles[i]) {
				break
			}
		}
		seedpool.Minimize(vm, p, titles[i])
		if p.Serialize() != input || !slices.Equal(seedpool.Bindings(p), inputBindings) {
			t.Fatalf("%s: Minimize wrote its input", titles[i])
		}
	}
	if steps <= len(repros) || shifted == 0 {
		t.Fatalf("%d removal steps over %d repros, %d trials with shifted bindings: the chains must be walked and shifts tried", steps, len(repros), shifted)
	}
}

// counting counts the trials a minimization runs.
type counting struct {
	vm     *vkernel.VM
	trials int
}

func (x *counting) Run(p *prog.Prog) *vkernel.Result {
	x.trials++
	return x.vm.Run(p)
}

// TestMinimizeAllocs: on a warm VM, minimizing a deep crash allocates
// its clone of the repro and nothing per trial: every crash stays
// within a small bound, and the crash with the most trials allocates no
// more than the one with the fewest.
func TestMinimizeAllocs(t *testing.T) {
	kernel, repros, titles := deepCrashSet(t)
	vm := kernel.NewVM()
	const budget = 8 // the clone reads 6
	fewest, most := -1, -1
	trials, allocs := make([]int, len(repros)), make([]float64, len(repros))
	for i, p := range repros {
		x := &counting{vm: kernel.NewVM()}
		seedpool.Minimize(x, p, titles[i])
		trials[i] = x.trials
		seedpool.Minimize(vm, p, titles[i]) // the VM reaches this repro's sizes
		allocs[i] = testing.AllocsPerRun(5, func() { seedpool.Minimize(vm, p, titles[i]) })
		if allocs[i] > budget {
			t.Errorf("%s: %.0f allocations over %d trials, budget %d", titles[i], allocs[i], trials[i], budget)
		}
		if fewest < 0 || trials[i] < trials[fewest] {
			fewest = i
		}
		if most < 0 || trials[i] > trials[most] {
			most = i
		}
	}
	if trials[most] < 4*trials[fewest] {
		t.Fatalf("%d-%d trials per crash: too narrow a spread to show independence", trials[fewest], trials[most])
	}
	if allocs[most] > allocs[fewest] {
		t.Fatalf("%.0f allocations over %d trials, %.0f over %d: the cost grows with the trials",
			allocs[most], trials[most], allocs[fewest], trials[fewest])
	}
}
