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

// TestMinimizeMatchesReference: Minimize, whose removal trials share
// the calls a removal leaves alone, returns the repro the
// clone-every-trial reference returns, byte for byte, for every crash
// of the deep set.
func TestMinimizeMatchesReference(t *testing.T) {
	kernel, repros, titles := deepCrashSet(t)
	vm := kernel.NewVM()
	for i, p := range repros {
		got := seedpool.Minimize(vm, p, titles[i]).Serialize()
		if want := seedpool.MinimizeReference(vm, p, titles[i]).Serialize(); got != want {
			t.Fatalf("%s: Minimize gave\n%s\nthe reference gave\n%s", titles[i], got, want)
		}
	}
}

// TestWithoutCallLeavesSourceUnchanged walks each deep repro's removal
// chain the way Minimize does and tries every removal at every step:
// each trial must equal the reference trial, and its source — which
// already shares calls with the trial before it — must serialize as it
// did before the trial was built.
func TestWithoutCallLeavesSourceUnchanged(t *testing.T) {
	kernel, repros, titles := deepCrashSet(t)
	vm := kernel.NewVM()
	trials, copied := 0, 0
	for i, p := range repros {
		cur := p.Clone()
		for len(cur.Calls) > 1 {
			text := cur.Serialize()
			var next *prog.Prog
			for drop := range cur.Calls {
				trial, ok := seedpool.WithoutCall(cur, drop)
				ref, refOK := seedpool.WithoutCallReference(cur, drop)
				if ok != refOK {
					t.Fatalf("%s, drop %d: legal=%v, the reference says %v", titles[i], drop, ok, refOK)
				}
				if got := cur.Serialize(); got != text {
					t.Fatalf("%s, drop %d: the trial changed its source:\n%s\nwas\n%s", titles[i], drop, got, text)
				}
				if !ok {
					continue
				}
				trials++
				for _, c := range trial.Calls {
					if !slices.Contains(cur.Calls, c) {
						copied++ // a call whose bindings shifted
						break
					}
				}
				if got, want := trial.Serialize(), ref.Serialize(); got != want {
					t.Fatalf("%s, drop %d: trial\n%s\nreference\n%s", titles[i], drop, got, want)
				}
				if next == nil && seedpool.Reproduces(vm, trial, titles[i]) {
					next = trial
				}
			}
			if next == nil {
				break
			}
			cur = next
		}
	}
	if trials == 0 || copied == 0 || copied == trials {
		t.Fatalf("%d legal removal trials, %d of them with a copied call: both kinds must be tried", trials, copied)
	}
}
