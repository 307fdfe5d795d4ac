package fuzz

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/telemetry"
)

// recordingHub is a fake HubSync that captures every sync and hands
// back a scripted remote corpus on the first non-final exchange.
type recordingHub struct {
	syncs  []SyncState
	remote []seedpool.SeedState
	served bool
}

// remoteSeed is what a hub client returns for a pulled program: its
// own copy, rendered.
func remoteSeed(p *prog.Prog, prio int) seedpool.SeedState {
	p = p.Detach()
	return seedpool.SeedState{Prog: p, Text: p.Serialize(), Prio: prio}
}

func (h *recordingHub) Sync(ctx context.Context, st SyncState) ([]seedpool.SeedState, error) {
	h.syncs = append(h.syncs, st)
	if st.Final || h.served {
		return nil, nil
	}
	h.served = true
	return h.remote, nil
}

func TestHubSyncFiresAtCheckpointsAndEnd(t *testing.T) {
	f := New(targetFor(t, "dm"), testKernel)
	hub := &recordingHub{}
	cfg := DefaultConfig(3000, 5)
	cfg.Hub = hub
	stats, err := f.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries at 1024 and 2048, plus the final sync.
	if len(hub.syncs) != 3 {
		t.Fatalf("got %d syncs, want 3 (two checkpoints + final)", len(hub.syncs))
	}
	for i, st := range hub.syncs[:2] {
		if st.Final {
			t.Fatalf("checkpoint sync %d marked final", i)
		}
		if st.Execs == 0 || len(st.Seeds) == 0 || st.Cover.Count() == 0 {
			t.Fatalf("checkpoint sync %d empty: execs=%d seeds=%d cover=%d",
				i, st.Execs, len(st.Seeds), st.Cover.Count())
		}
	}
	last := hub.syncs[2]
	if !last.Final || last.Execs != stats.Execs {
		t.Fatalf("final sync wrong: final=%v execs=%d (campaign %d)",
			last.Final, last.Execs, stats.Execs)
	}
	if last.Cover.Count() != stats.CoverCount() {
		t.Fatalf("final sync cover %d != campaign cover %d", last.Cover.Count(), stats.CoverCount())
	}
	for i := 1; i < len(last.Crashes); i++ {
		if last.Crashes[i].Title <= last.Crashes[i-1].Title {
			t.Fatal("sync crash list must be sorted by title")
		}
	}
}

func TestHubSyncImportsRemoteSeeds(t *testing.T) {
	tgt := targetFor(t, "dm")
	f := New(tgt, testKernel)
	// Remote corpus: programs a detached campaign would not hold, with
	// weights high enough that the (never-full) pool retains them.
	g := prog.NewGen(tgt, 999)
	hub := &recordingHub{}
	remoteTexts := map[string]bool{}
	for i := 0; i < 5; i++ {
		p := g.Generate(4)
		hub.remote = append(hub.remote, remoteSeed(p, 100+i))
		remoteTexts[p.Serialize()] = true
	}
	cfg := DefaultConfig(2000, 5)
	cfg.Hub = hub
	if _, err := f.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// The final sync's export must include the imported remote seeds:
	// the pool never filled, so nothing could have evicted them.
	final := hub.syncs[len(hub.syncs)-1]
	if !final.Final {
		t.Fatal("last sync not final")
	}
	found := 0
	for _, st := range final.Seeds {
		if remoteTexts[st.Prog.Serialize()] {
			found++
		}
	}
	if found != len(remoteTexts) {
		t.Fatalf("final export holds %d of %d remote seeds", found, len(remoteTexts))
	}
}

// TestHubSyncErrorKeepsCampaignRunning: an unreachable hub must not
// fail or derail the campaign — results match a detached run exactly
// (error responses return no seeds, so nothing perturbs the pool).
func TestHubSyncErrorKeepsCampaignRunning(t *testing.T) {
	f := New(targetFor(t, "dm"), testKernel)
	cfg := DefaultConfig(3000, 5)
	detached := f.Run(cfg)
	cfg.Hub = failingHub{}
	attached, err := f.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("hub errors must stay best-effort: %v", err)
	}
	if attached.CoverCount() != detached.CoverCount() || attached.Execs != detached.Execs {
		t.Fatalf("failing hub changed the campaign: %d/%d vs %d/%d",
			attached.CoverCount(), attached.Execs, detached.CoverCount(), detached.Execs)
	}
}

type failingHub struct{}

func (failingHub) Sync(ctx context.Context, st SyncState) ([]seedpool.SeedState, error) {
	return nil, context.DeadlineExceeded
}

// TestRunParallelHubSyncsMergedState: units must not push their local
// counters as worker stats — every sync carries the merged cumulative
// campaign state (monotone execs, final push marked Final with the
// full budget), and seeds pulled at a boundary warm-start the units
// that launch afterwards.
func TestRunParallelHubSyncsMergedState(t *testing.T) {
	tgt := targetFor(t, "dm")
	f := New(tgt, testKernel)
	g := prog.NewGen(tgt, 777)
	hub := &recordingHub{}
	remoteTexts := map[string]bool{}
	for i := 0; i < 4; i++ {
		p := g.Generate(4)
		hub.remote = append(hub.remote, remoteSeed(p, 100+i))
		remoteTexts[p.Serialize()] = true
	}
	cfg := DefaultConfig(4096, 9)
	cfg.ShardExecs = 1024 // 4 units; first boundary serves the remote corpus
	cfg.Hub = hub
	stats, err := f.RunParallel(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One sync per unit boundary plus the final push.
	if len(hub.syncs) != 5 {
		t.Fatalf("got %d syncs, want 5 (4 unit boundaries + final)", len(hub.syncs))
	}
	for i := 1; i < len(hub.syncs); i++ {
		if hub.syncs[i].Execs < hub.syncs[i-1].Execs {
			t.Fatalf("sync execs regressed: %d then %d — unit-local counters leaked",
				hub.syncs[i-1].Execs, hub.syncs[i].Execs)
		}
	}
	for i, st := range hub.syncs[:4] {
		if st.Final {
			t.Fatalf("boundary sync %d marked final", i)
		}
	}
	last := hub.syncs[4]
	if !last.Final || last.Execs != stats.Execs || stats.Execs != 4096 {
		t.Fatalf("final sync wrong: final=%v execs=%d (campaign %d)",
			last.Final, last.Execs, stats.Execs)
	}
	if last.Cover.Count() != stats.CoverCount() {
		t.Fatalf("final sync cover %d != merged cover %d", last.Cover.Count(), stats.CoverCount())
	}
	// Units 2..4 warm-started from the pulled corpus; the high-weight
	// remote seeds must survive into the final merged export.
	found := 0
	for _, st := range last.Seeds {
		if remoteTexts[st.Prog.Serialize()] {
			found++
		}
	}
	if found != len(remoteTexts) {
		t.Fatalf("final export holds %d of %d pulled remote seeds", found, len(remoteTexts))
	}
}

// TestSyncAccountingSharedByDrivers: RunContext and RunParallel run
// their hub exchanges through one helper, so on the same hub hook both
// must account each exchange identically — one Stats.Syncs tick, one
// fuzz_sync_ns observation and one "sync" flight event carrying the
// pushed exec count. The clock steps 1ms per reading, so every
// exchange measures exactly one step (no sleeps).
func TestSyncAccountingSharedByDrivers(t *testing.T) {
	const step = time.Millisecond
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		run       func(f *Fuzzer, cfg Config) (*Stats, error)
		wantSyncs int
	}{
		// Boundaries at 1024 and 2048, plus the final sync.
		{"RunContext", func(f *Fuzzer, cfg Config) (*Stats, error) { return f.RunContext(ctx, cfg) }, 3},
		// One unit spanning the budget: its boundary, plus the final sync.
		{"RunParallel", func(f *Fuzzer, cfg Config) (*Stats, error) {
			cfg.ShardExecs = cfg.Execs
			return f.RunParallel(ctx, cfg, 1)
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ticks atomic.Int64
			clock := telemetry.Clock(func() time.Time {
				return time.Unix(1_700_000_000, 0).Add(time.Duration(ticks.Add(1)) * step)
			})
			hub := &recordingHub{}
			metrics := NewMetrics(telemetry.NewRegistry())
			flight := telemetry.NewFlightRecorder(t.TempDir(), 1<<12, clock)
			cfg := DefaultConfig(3000, 5)
			cfg.Hub, cfg.Clock, cfg.Metrics, cfg.Flight = hub, clock, metrics, flight
			stats, err := tc.run(New(targetFor(t, "dm"), testKernel), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(hub.syncs) != tc.wantSyncs || stats.Syncs != tc.wantSyncs {
				t.Fatalf("hub saw %d exchanges, Stats.Syncs = %d, want %d", len(hub.syncs), stats.Syncs, tc.wantSyncs)
			}
			if want := time.Duration(tc.wantSyncs) * step; stats.SyncTime != want {
				t.Errorf("Stats.SyncTime = %v, want %v (one clock step per exchange)", stats.SyncTime, want)
			}
			if n, sum := metrics.SyncNs.Count(), metrics.SyncNs.Sum(); n != int64(tc.wantSyncs) || sum != stats.SyncTime.Nanoseconds() {
				t.Errorf("fuzz_sync_ns count/sum = %d/%d, want %d/%d", n, sum, tc.wantSyncs, stats.SyncTime.Nanoseconds())
			}
			path, err := flight.Dump("end")
			if err != nil {
				t.Fatal(err)
			}
			_, events, err := telemetry.ReadFlightDump(path)
			if err != nil {
				t.Fatal(err)
			}
			var syncs []telemetry.Event
			for _, ev := range events {
				if ev.Span == "sync" {
					syncs = append(syncs, ev)
				}
			}
			if len(syncs) != tc.wantSyncs {
				t.Fatalf("flight ring holds %d sync events, want %d", len(syncs), tc.wantSyncs)
			}
			for i, ev := range syncs {
				wantDetail := ""
				if i == len(syncs)-1 {
					wantDetail = "final"
				}
				if ev.DurNs != step.Nanoseconds() || ev.Execs != int64(hub.syncs[i].Execs) || ev.Detail != wantDetail || ev.ElapsedNs <= 0 {
					t.Errorf("sync event %d = %+v, want dur %d, execs %d, detail %q", i, ev, step.Nanoseconds(), hub.syncs[i].Execs, wantDetail)
				}
			}
		})
	}
}
