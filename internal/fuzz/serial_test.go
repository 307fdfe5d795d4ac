package fuzz

import (
	"context"
	"strings"
	"testing"

	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
)

func TestRunContextCancellation(t *testing.T) {
	f := New(targetFor(t, "dm"), testKernel)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := f.RunContext(ctx, DefaultConfig(1_000_000, 5))
	if err == nil {
		t.Fatal("cancelled serial campaign must report the context error")
	}
	if stats == nil || stats.Execs >= 1_000_000 {
		t.Fatalf("cancellation did not stop the campaign: %+v", stats)
	}
}

func TestRunMatchesRunContext(t *testing.T) {
	f := New(targetFor(t, "dm"), testKernel)
	a := f.Run(DefaultConfig(800, 9))
	b, err := f.RunContext(context.Background(), DefaultConfig(800, 9))
	if err != nil {
		t.Fatal(err)
	}
	if a.CoverCount() != b.CoverCount() || a.UniqueCrashes() != b.UniqueCrashes() ||
		a.CorpusSize != b.CorpusSize {
		t.Fatalf("Run and RunContext diverged: %+v vs %+v", a, b)
	}
}

func TestSerialProgress(t *testing.T) {
	f := New(targetFor(t, "dm"), testKernel)
	cfg := DefaultConfig(4096, 3)
	var updates []Progress
	cfg.Progress = func(p Progress) { updates = append(updates, p) }
	if _, err := f.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// Periodic updates every progressEvery execs plus the final one.
	if want := 4096/progressEvery - 1 + 1; len(updates) != want {
		t.Fatalf("want %d updates, got %d", want, len(updates))
	}
	last := updates[len(updates)-1]
	if last.ShardsDone != 1 || last.ShardsTotal != 1 || last.Execs != 4096 {
		t.Fatalf("final update wrong: %+v", last)
	}
	for i := 1; i < len(updates); i++ {
		if updates[i].Execs < updates[i-1].Execs || updates[i].Cover < updates[i-1].Cover {
			t.Fatalf("progress must be monotonic: %+v", updates)
		}
	}
}

// zeros renders an n-element all-zero array the way Serialize does.
func zeros(n int) string {
	return "[" + strings.TrimSuffix(strings.Repeat("0x0, ", n), ", ") + "]"
}

// TestCrashReprosMinimized is the triage acceptance check: campaign
// crash reports carry minimized repros, not the raw crashing program.
// The exact repro text was recorded with the interpreted executor, so
// it also shows triage on the compiled path is byte-identical.
func TestCrashReprosMinimized(t *testing.T) {
	tgt := targetFor(t, "dm")
	f := New(tgt, testKernel)
	stats := f.Run(DefaultConfig(6000, 3))
	cr, ok := stats.Crashes["kmalloc bug in ctl_ioctl"]
	if !ok {
		t.Fatal("ctl_ioctl crash not found at seed 3")
	}
	// open + the triggering ioctl, every payload field zeroed except
	// data_size (the trigger).
	want := "r0 = openat$dm(0xffffff9c, &\"/dev/mapper/control\", 0x2, 0x0)\n" +
		"ioctl$DM_LIST_VERSIONS(r0, 0xc138fd0d, &{" + zeros(3) + ", 0xffffffff, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, " +
		zeros(128) + ", " + zeros(129) + ", []})\n"
	if cr.Repro != want {
		t.Fatalf("minimized repro moved:\n got %q\nwant %q", cr.Repro, want)
	}
	if cr.FirstExec != 9 || cr.Count != 897 {
		t.Fatalf("crash discovery moved: first exec %d (want 9), count %d (want 897)", cr.FirstExec, cr.Count)
	}
	p, err := prog.Deserialize(tgt, cr.Repro)
	if err != nil {
		t.Fatalf("repro does not deserialize: %v\n%s", err, cr.Repro)
	}
	if !seedpool.Reproduces(testKernel.NewVM(), p, cr.Title) {
		t.Fatalf("triaged repro does not reproduce:\n%s", cr.Repro)
	}
}

func TestNoTriageKeepsRawRepro(t *testing.T) {
	tgt := targetFor(t, "dm")
	f := New(tgt, testKernel)
	cfg := DefaultConfig(6000, 3)
	cfg.NoTriage = true
	stats := f.Run(cfg)
	cr, ok := stats.Crashes["kmalloc bug in ctl_ioctl"]
	if !ok {
		t.Fatal("ctl_ioctl crash not found at seed 3")
	}
	p, err := prog.Deserialize(tgt, cr.Repro)
	if err != nil {
		t.Fatalf("raw repro does not deserialize: %v", err)
	}
	if !seedpool.Reproduces(testKernel.NewVM(), p, cr.Title) {
		t.Fatal("raw repro does not reproduce")
	}
	// Triage must not change anything else about the campaign.
	min := f.Run(DefaultConfig(6000, 3))
	if min.CoverCount() != stats.CoverCount() || min.Execs != stats.Execs ||
		min.UniqueCrashes() != stats.UniqueCrashes() {
		t.Fatalf("NoTriage changed campaign outcome: %+v vs %+v", stats, min)
	}
}
