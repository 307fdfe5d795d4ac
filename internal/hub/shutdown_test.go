package hub

import (
	"context"
	"errors"
	"testing"

	"kernelgpt/internal/fuzz"
)

// TestCancelledCampaignDeliversFinal: a campaign cancelled mid-run
// (Ctrl-C) must still close itself out at the hub — the Final exchange
// runs detached from the cancelled context, so the hub ends up with
// exactly the partial Stats the caller got back and the worker's lease
// is released instead of waiting out its TTL.
func TestCancelledCampaignDeliversFinal(t *testing.T) {
	tgt := targetFor(t, "dm")
	for _, tc := range []struct {
		name string
		run  func(context.Context, *fuzz.Fuzzer, fuzz.Config) (*fuzz.Stats, error)
	}{
		{"RunContext", func(ctx context.Context, f *fuzz.Fuzzer, cfg fuzz.Config) (*fuzz.Stats, error) {
			return f.RunContext(ctx, cfg)
		}},
		{"RunParallel", func(ctx context.Context, f *fuzz.Fuzzer, cfg fuzz.Config) (*fuzz.Stats, error) {
			cfg.ShardExecs = 2048
			return f.RunParallel(ctx, cfg, 3)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub, srv := newHub(t, tgt)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c, err := Dial(ctx, srv.URL, "interrupted", tgt)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fuzz.DefaultConfig(1_000_000, 5)
			cfg.Hub = c
			cfg.Progress = func(p fuzz.Progress) {
				if p.Execs >= 6000 {
					cancel()
				}
			}
			stats, err := tc.run(ctx, fuzz.New(tgt, testKernel), cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if stats.Execs < 6000 || stats.Execs >= 1_000_000 {
				t.Fatalf("campaign ran %d execs, want a partial run past the cancel point", stats.Execs)
			}
			st := hub.Stats()
			if len(st.Workers) != 1 {
				t.Fatalf("hub knows %d workers, want 1", len(st.Workers))
			}
			w := st.Workers[0]
			t.Logf("campaign: %d execs, %d syncs; hub: %d execs, %d syncs served, lease %s",
				stats.Execs, stats.Syncs, w.Stats.Execs, w.Sync.Count, w.Lease)
			if !w.Final || w.Lease != LeaseReleased || st.ActiveLeases != 0 {
				t.Errorf("worker not closed out: final=%v lease=%q active leases=%d", w.Final, w.Lease, st.ActiveLeases)
			}
			if w.Stats.Execs != stats.Execs || w.Stats.Cover != stats.CoverCount() || w.Stats.Crashes != stats.UniqueCrashes() {
				t.Errorf("hub holds execs=%d cover=%d crashes=%d, campaign returned %d/%d/%d",
					w.Stats.Execs, w.Stats.Cover, w.Stats.Crashes, stats.Execs, stats.CoverCount(), stats.UniqueCrashes())
			}
			hits := map[string]int{}
			for _, cr := range hub.Crashes() {
				hits[cr.Title] += cr.Count
			}
			if len(hits) != stats.UniqueCrashes() {
				t.Errorf("hub crash table has %d titles, campaign %d", len(hits), stats.UniqueCrashes())
			}
			for title, cr := range stats.Crashes {
				if hits[title] != cr.Count {
					t.Errorf("crash %q: hub counts %d hits, campaign %d", title, hits[title], cr.Count)
				}
			}
		})
	}
}

// TestShardedCrashCountsMatchHub: the hub credits a worker's crash hits
// once per title, however often the campaign's surviving repro for that
// title changes. Units of a multi-worker sharded campaign merge out of
// order, so a title's repro (the one from the earliest FirstExec) is
// replaced whenever a lower unit completes late; the counts stay
// cumulative per title, which is the unit the client differences in and
// the hub must difference in too. The hub holds one record per title.
func TestShardedCrashCountsMatchHub(t *testing.T) {
	tgt := targetFor(t, "dm", "cec")
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		hub, srv := newHub(t, tgt)
		c, err := Dial(ctx, srv.URL, "sharded", tgt)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fuzz.DefaultConfig(40_000, seed)
		cfg.ShardExecs = 2048
		cfg.Hub = c
		stats, err := fuzz.New(tgt, testKernel).RunParallel(ctx, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		hits := map[string]int{}
		for _, cr := range hub.Crashes() {
			hits[cr.Title] += cr.Count
		}
		if len(stats.Crashes) == 0 {
			t.Fatalf("seed %d: campaign found no crash, the test checks nothing", seed)
		}
		if n := len(hub.Crashes()); n != len(stats.Crashes) || hub.Stats().Crashes != n {
			t.Errorf("seed %d: hub holds %d crash records for the campaign's %d titles", seed, n, len(stats.Crashes))
		}
		for title, cr := range stats.Crashes {
			if hits[title] != cr.Count {
				t.Errorf("seed %d, crash %q: hub counts %d hits, campaign %d", seed, title, hits[title], cr.Count)
			}
		}
	}
}
