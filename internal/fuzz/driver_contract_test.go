package fuzz

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/telemetry"
	"kernelgpt/internal/vkernel"
)

// contractLog is the ordered event log of one driver-contract run. The
// callbacks of a one-worker campaign all run on the calling goroutine;
// the mutex only keeps the 3-worker runs race-clean.
type contractLog struct {
	mu    sync.Mutex
	lines []string
	store *corpusstore.Store // nil without CorpusDir
}

func (l *contractLog) addf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// gen renders the store's manifest generation as seen right now.
func (l *contractLog) gen(t *testing.T) string {
	if l.store == nil {
		return ""
	}
	m, err := l.store.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(" gen=%d", m.Generation)
}

// contractHub is the scripted fake hub: it logs every SyncState it is
// handed (with the store generation visible at that moment, i.e. after
// the boundary's checkpoint flush) and serves its remote corpus on the
// first non-final exchange only.
type contractHub struct {
	t      *testing.T
	log    *contractLog
	remote []seedpool.SeedState
	served bool
}

func (h *contractHub) Sync(ctx context.Context, st SyncState) ([]seedpool.SeedState, error) {
	h.log.addf("sync execs=%d final=%v seeds=%d cover=%d crashes=%d%s",
		st.Execs, st.Final, len(st.Seeds), st.Cover.Count(), len(st.Crashes), h.log.gen(h.t))
	if st.Final || h.served {
		return nil, nil
	}
	h.served = true
	return h.remote, nil
}

func coverHash(c *vkernel.CoverSet) string {
	h := sha256.New()
	var b [4]byte
	c.ForEach(func(id vkernel.BlockID) {
		binary.LittleEndian.PutUint32(b[:], uint32(id))
		h.Write(b[:])
	})
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// fingerprint logs the final Stats view; nothing in it depends on the
// order units completed in.
func (l *contractLog) fingerprint(s *Stats, serial bool) {
	ops := make([]string, len(s.Ops))
	for i, o := range s.Ops {
		ops[i] = fmt.Sprintf("%s:%d:%d", o.Name, o.Picks, o.NewBlocks)
	}
	l.addf("stats execs=%d cover=%d/%s corpus=%d syncs=%d synctime=%v ops=%s",
		s.Execs, s.CoverCount(), coverHash(s.Cover), s.CorpusSize, s.Syncs, s.SyncTime, strings.Join(ops, ","))
	if serial {
		l.addf("stats work==elapsed=%v", s.WorkTime == s.Elapsed && s.Elapsed > 0)
	}
	for _, title := range s.CrashTitles() {
		cr := s.Crashes[title]
		l.addf("crash %q first=%d count=%d repro=%x", title, cr.FirstExec, cr.Count, sha256.Sum256([]byte(cr.Repro)))
	}
}

// storeState logs the store as the campaign left it: generation, cover
// stamp and a hash over every manifest entry (entry generations
// included, so the contents of the intermediate checkpoints count).
func (l *contractLog) storeState(t *testing.T) {
	if l.store == nil {
		return
	}
	m, err := l.store.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range m.Seeds {
		fmt.Fprintf(h, "%s %d %d %s %d\n", e.File, e.Prio, e.Bonus, e.Op, e.Gen)
	}
	l.addf("store gen=%d cover=%d seeds=%d entries=%x", m.Generation, m.CoverBlocks, len(m.Seeds), h.Sum(nil)[:8])
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDriverContract pins what the campaign entry points do around the
// step loop — the ordered stream of Progress updates and hub
// exchanges, the store flushes, and the final Stats — for RunContext,
// RunParallel (four units, and the one-unit ShardExecs = Execs case)
// and RunRepetitions, each detached, hub-attached, checkpointing a
// warm store, resuming one read-only, and with hub and checkpoint
// together (the only mode where an observer, the hub fake, runs after
// each boundary's flush). testdata/driver_contract.txt was recorded at
// the commit before RunContext and RunParallel became two plans of one
// driver; re-recording it (-update) is a behaviour change and needs
// the same review as a fingerprint bump.
func TestDriverContract(t *testing.T) {
	const (
		execs = 4500
		grain = 1200 // 4 units, the first three each relay one tick
	)
	tgt := targetFor(t, "dm", "cec")
	ctx := context.Background()

	// The warm store every CorpusDir mode starts from.
	warm := t.TempDir()
	seedCfg := DefaultConfig(1500, 77)
	seedCfg.CorpusDir = warm
	if _, err := New(tgt, testKernel).RunContext(ctx, seedCfg); err != nil {
		t.Fatal(err)
	}
	var remote []seedpool.SeedState
	g := prog.NewGen(tgt, 999)
	for i := range 5 {
		remote = append(remote, remoteSeed(g.Generate(4), 100+i))
	}

	type driver struct {
		name    string
		workers int // > 1: final fingerprint only
		serial  bool
		run     func(f *Fuzzer, cfg Config) []*Stats
	}
	one := func(s *Stats, err error) []*Stats {
		if err != nil {
			t.Fatal(err)
		}
		return []*Stats{s}
	}
	parallel := func(shardExecs, workers int) func(*Fuzzer, Config) []*Stats {
		return func(f *Fuzzer, cfg Config) []*Stats {
			cfg.ShardExecs = shardExecs
			return one(f.RunParallel(ctx, cfg, workers))
		}
	}
	drivers := []driver{
		{"RunContext", 1, true, func(f *Fuzzer, cfg Config) []*Stats { return one(f.RunContext(ctx, cfg)) }},
		{"RunParallel/4units", 1, false, parallel(grain, 1)},
		{"RunParallel/1unit", 1, false, parallel(execs, 1)},
		{"RunRepetitions/3", 1, true, func(f *Fuzzer, cfg Config) []*Stats {
			cfg.Execs = 1500
			return f.RunRepetitions(ctx, cfg, 3)
		}},
		{"RunParallel/4units/3workers", 3, false, parallel(grain, 3)},
	}
	modes := []struct {
		name                 string
		hub, store, readOnly bool
	}{
		{"detached", false, false, false},
		{"hub", true, false, false},
		{"checkpoint", false, true, false},
		{"readonly", false, true, true},
		{"hub+checkpoint", true, true, false},
	}

	var got []string
	for _, d := range drivers {
		for _, m := range modes {
			if d.workers > 1 && m.hub {
				continue // pulled seeds reach units by completion order
			}
			log := &contractLog{}
			var ticks atomic.Int64
			cfg := DefaultConfig(execs, 5)
			cfg.Clock = telemetry.Clock(func() time.Time {
				return time.Unix(1_700_000_000, 0).Add(time.Duration(ticks.Add(1)) * time.Millisecond)
			})
			if m.store {
				dir := t.TempDir()
				copyDir(t, warm, dir)
				store, err := corpusstore.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				log.store = store
				cfg.CorpusDir, cfg.Checkpoint, cfg.ReadOnlyCorpus = dir, !m.readOnly, m.readOnly
				cfg.StoreReport = func(r corpusstore.Report) { log.addf("load loaded=%d skipped=%d", r.Loaded, len(r.Skipped)) }
			}
			if m.hub {
				cfg.Hub = &contractHub{t: t, log: log, remote: remote}
			}
			if d.workers == 1 {
				cfg.Progress = func(p Progress) {
					log.addf("progress %d/%d execs=%d cover=%d crashes=%d", p.ShardsDone, p.ShardsTotal, p.Execs, p.Cover, p.Crashes)
				}
			}
			got = append(got, fmt.Sprintf("== %s %s", d.name, m.name))
			for _, s := range d.run(New(tgt, testKernel), cfg) {
				log.fingerprint(s, d.serial)
			}
			log.storeState(t)
			got = append(got, log.lines...)
		}
	}

	path := filepath.Join("testdata", "driver_contract.txt")
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "<missing>"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("driver contract diverged at line %d:\n got %s\nwant %s", i+1, g, want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("driver log has %d lines, contract has %d; first extra: %s", len(got), len(want), got[len(want)])
	}
}
