package fuzz

import (
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
)

// findCrash runs campaigns until one produces the given crash and
// returns the crashing program, re-parsed from its repro text.
func findCrash(t *testing.T, tgt *prog.Target, title string, seed int64) *prog.Prog {
	t.Helper()
	f := New(tgt, testKernel)
	for s := seed; s < seed+6; s++ {
		stats := f.Run(DefaultConfig(8000, s))
		if cr, ok := stats.Crashes[title]; ok {
			p, err := prog.Deserialize(tgt, cr.Repro)
			if err != nil {
				t.Fatalf("repro does not deserialize: %v\n%s", err, cr.Repro)
			}
			return p
		}
	}
	t.Fatalf("crash %q not found within budget", title)
	return nil
}

func TestMinimizePreservesCrash(t *testing.T) {
	tgt := targetFor(t, "dm")
	const title = "kmalloc bug in ctl_ioctl"
	p := findCrash(t, tgt, title, 31)
	min := seedpool.Minimize(testKernel.NewVM(), p, title)
	if !seedpool.Reproduces(testKernel.NewVM(), min, title) {
		t.Fatalf("minimized program lost the crash:\n%s", min.Serialize())
	}
	if len(min.Calls) > len(p.Calls) {
		t.Fatal("minimization grew the program")
	}
}

func TestMinimizeShrinksToEssentials(t *testing.T) {
	tgt := targetFor(t, "dm")
	const title = "kmalloc bug in ctl_ioctl"
	p := findCrash(t, tgt, title, 41)
	min := seedpool.Minimize(testKernel.NewVM(), p, title)
	// The dm kvmalloc bug needs exactly: open + the triggering ioctl.
	if len(min.Calls) > 2 {
		t.Fatalf("expected a 2-call repro, got %d:\n%s", len(min.Calls), min.Serialize())
	}
	names := map[string]bool{}
	for _, c := range min.Calls {
		names[c.Sc.Name] = true
	}
	if !names["openat$dm"] || !names["ioctl$DM_LIST_VERSIONS"] {
		t.Fatalf("essential calls missing:\n%s", min.Serialize())
	}
}

func TestMinimizeStatefulChainKeepsPriors(t *testing.T) {
	tgt := targetFor(t, "cec")
	const title = "WARNING in cec_data_cancel" // needs CEC_TRANSMIT first
	p := findCrash(t, tgt, title, 51)
	min := seedpool.Minimize(testKernel.NewVM(), p, title)
	if !seedpool.Reproduces(testKernel.NewVM(), min, title) {
		t.Fatal("minimized chain lost the crash")
	}
	names := map[string]bool{}
	for _, c := range min.Calls {
		names[c.Sc.Name] = true
	}
	// The precondition call must survive minimization.
	if !names["ioctl$CEC_TRANSMIT"] {
		t.Fatalf("prior command removed from stateful repro:\n%s", min.Serialize())
	}
}

func TestMinimizeNonReproducingReturnsInput(t *testing.T) {
	tgt := targetFor(t, "dm")
	g := prog.NewGen(tgt, 61)
	p := g.Generate(4)
	min := seedpool.Minimize(testKernel.NewVM(), p, "no such crash title")
	if min.Serialize() != p.Clone().Serialize() {
		t.Fatal("non-reproducing input was modified")
	}
}

func TestMinimizedReproSerializes(t *testing.T) {
	tgt := targetFor(t, "dm")
	const title = "kmalloc bug in ctl_ioctl"
	p := findCrash(t, tgt, title, 71)
	min := seedpool.Minimize(testKernel.NewVM(), p, title)
	rt, err := prog.Deserialize(tgt, min.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if !seedpool.Reproduces(testKernel.NewVM(), rt, title) {
		t.Fatal("serialized minimized repro does not reproduce")
	}
}

func TestMinimizeHonorsGroundTruthTrigger(t *testing.T) {
	// After minimization, the dm repro's payload must still carry a
	// data_size above the trigger threshold (the essential byte).
	tgt := targetFor(t, "dm")
	const title = "kmalloc bug in ctl_ioctl"
	p := findCrash(t, tgt, title, 81)
	min := seedpool.Minimize(testKernel.NewVM(), p, title)
	dm := testCorpus.Handler("dm")
	layout := dm.LayoutOf("dm_ioctl")
	found := false
	for _, c := range min.Calls {
		if c.Sc.Name != "ioctl$DM_LIST_VERSIONS" {
			continue
		}
		for _, a := range c.Args {
			if a.Type.Kind == prog.KindPtr && a.Ptr != nil {
				if v, ok := layout.ReadField(a.Ptr.Encode(), "data_size"); ok && v > 0x7fffffff {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("minimized payload lost the trigger value:\n%s", min.Serialize())
	}
	_ = corpus.GateGt // document the trigger op in use
}
