package fuzz

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/vkernel"
)

// shutdownHub is a fake hub that notes, for every exchange, whether the
// campaign had already been cancelled and what context it was handed.
type shutdownHub struct {
	cancelled func() bool

	mu        sync.Mutex
	late      int           // non-final exchanges started after cancellation
	finals    int           // Final exchanges seen
	finalLive bool          // the Final exchange's context was not done
	finalLeft time.Duration // time left on the Final exchange's deadline (0 = none)
}

func (h *shutdownHub) Sync(ctx context.Context, st SyncState) ([]seedpool.SeedState, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case st.Final:
		h.finals++
		h.finalLive = ctx.Err() == nil
		if dl, ok := ctx.Deadline(); ok {
			h.finalLeft = time.Until(dl)
		}
	case h.cancelled():
		h.late++
	}
	return nil, nil
}

// TestCancelStopsSchedulingUnits pins the driver's shutdown rule on
// both entry points: once the context is done no further unit starts
// (no executor is built for it, it is neither merged nor counted
// done), no boundary checkpoints or exchanges any more, and the
// campaign-end sequence still runs — one Final exchange on a live
// context that expires within finalSyncGrace (so a hub that never
// answers delays a cancelled campaign by at most that), then the final
// flush.
func TestCancelStopsSchedulingUnits(t *testing.T) {
	tgt := targetFor(t, "dm")
	for _, tc := range []struct {
		name  string
		grain int // execs between full boundaries
		run   func(context.Context, *Fuzzer, Config) (*Stats, error)
	}{
		{"RunContext", progressEvery, func(ctx context.Context, f *Fuzzer, cfg Config) (*Stats, error) { return f.RunContext(ctx, cfg) }},
		{"RunParallel", 2048, func(ctx context.Context, f *Fuzzer, cfg Config) (*Stats, error) {
			cfg.ShardExecs = 2048
			// One worker: with two, a unit could pass its cancellation
			// check just before the other unit's Progress hook cancels.
			return f.RunParallel(ctx, cfg, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hub := &shutdownHub{cancelled: func() bool { return ctx.Err() != nil }}
			dir := t.TempDir()
			var mu sync.Mutex
			started, done := 0, 0
			f := New(tgt, testKernel)
			f.NewExecutor = func() vkernel.Executor {
				mu.Lock()
				started++
				mu.Unlock()
				return testKernel.NewVM()
			}
			cfg := DefaultConfig(1_000_000, 5)
			cfg.Hub, cfg.CorpusDir, cfg.Checkpoint = hub, dir, true
			cfg.Progress = func(p Progress) {
				if p.Execs >= 6000 {
					cancel()
				}
				mu.Lock()
				done = p.ShardsDone
				mu.Unlock()
			}
			stats, err := tc.run(ctx, f, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if stats.Execs < 6000 || stats.Execs > 6000+3*2048 {
				t.Fatalf("campaign ran %d execs, want it to stop soon after 6000", stats.Execs)
			}
			if started > stats.Execs/2048+2 {
				t.Errorf("%d units started for %d execs: cancelled units still run", started, stats.Execs)
			}
			if done > started {
				t.Errorf("%d units reported done, %d started", done, started)
			}
			// One exchange and one flush per boundary the campaign
			// reached, plus the campaign-end pair — none per skipped unit.
			boundaries := stats.Execs / tc.grain
			if stats.Syncs > boundaries+1 {
				t.Errorf("Stats.Syncs = %d for %d boundaries", stats.Syncs, boundaries)
			}
			if hub.late != 0 {
				t.Errorf("%d non-final exchanges started after cancellation", hub.late)
			}
			if hub.finals != 1 || !hub.finalLive {
				t.Errorf("Final exchange: %d seen, context live = %v; want one, on a live context", hub.finals, hub.finalLive)
			}
			if hub.finalLeft <= 0 || hub.finalLeft > finalSyncGrace {
				t.Errorf("Final exchange deadline in %v, want within the %v grace", hub.finalLeft, finalSyncGrace)
			}
			store, err := corpusstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			m, err := store.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			if m.Generation == 0 || m.Generation > boundaries+1 {
				t.Errorf("store generation %d after %d boundaries: flushed for skipped units", m.Generation, boundaries)
			}
			if len(m.Seeds) == 0 {
				t.Error("final flush missing: the store holds no seeds")
			}
		})
	}
}
