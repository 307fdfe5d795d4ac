package hub

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/telemetry"
	"kernelgpt/internal/vkernel"
)

// runGoldenScenario drives one fully pinned hub session — fixed
// clock, fixed RNG seed, fixed worker order — and returns the bytes
// of GET /v1/stats, the hubstate.json sidecar, and two consecutive
// GET /metrics scrapes taken afterwards.
func runGoldenScenario(t *testing.T) (statsBody, stateBody, metrics1, metrics2 []byte) {
	t.Helper()
	tgt := targetFor(t, "dm")
	clock := time.Unix(1_700_000_000, 0).UTC()
	dir := t.TempDir()
	statePath := filepath.Join(dir, "hubstate.json")
	store, err := corpusstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(tgt, store,
		WithClock(func() time.Time { return clock }),
		WithStatePath(statePath),
		WithMetrics(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	ctx := context.Background()
	c1, err := Dial(ctx, srv.URL, "alpha", tgt)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(ctx, srv.URL, "beta", tgt)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.NewGen(tgt, 1)
	var seeds []seedpool.SeedState
	for i := 0; i < 3; i++ {
		seeds = append(seeds, stateOf(g.Generate(3).Detach(), i+1))
	}
	cover := vkernel.NewCoverSet(16)
	for _, b := range []vkernel.BlockID{1, 2, 5} {
		cover.Add(b)
	}
	if _, err := c1.Sync(ctx, fuzz.SyncState{
		Seeds: seeds, Cover: cover, Execs: 100,
		Crashes: []fuzz.CrashReport{{Title: "bug-a", Repro: seeds[0].Prog.Serialize(), Count: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Sync(ctx, fuzz.SyncState{Cover: &vkernel.CoverSet{}, Execs: 50}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	statsBody = get("/v1/stats")
	stateBody, err = os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	metrics1 = get("/metrics")
	metrics2 = get("/metrics")
	return statsBody, stateBody, metrics1, metrics2
}

// TestStatsAndStateGoldenBytes pins the monitoring and persistence
// surfaces byte-for-byte: the same session must serialize to the same
// bytes on every run (no map-order leaks — the detorder invariant),
// and to exactly the checked-in goldens (wire-format drift is a
// deliberate act: regenerate with `go test ./internal/hub -run
// Golden -update`).
func TestStatsAndStateGoldenBytes(t *testing.T) {
	stats1, state1, metricsA1, metricsA2 := runGoldenScenario(t)
	stats2, state2, metricsB1, _ := runGoldenScenario(t)
	if !bytes.Equal(stats1, stats2) {
		t.Errorf("/v1/stats is not byte-stable across identical runs:\nrun1: %s\nrun2: %s", stats1, stats2)
	}
	if !bytes.Equal(state1, state2) {
		t.Errorf("hubstate.json is not byte-stable across identical runs:\nrun1: %s\nrun2: %s", state1, state2)
	}
	// Double-scrape equality: serving /metrics must not change what
	// the next scrape reads (scrapes are not self-counted).
	if !bytes.Equal(metricsA1, metricsA2) {
		t.Errorf("/metrics is not byte-stable across consecutive scrapes:\nscrape1:\n%s\nscrape2:\n%s", metricsA1, metricsA2)
	}
	if !bytes.Equal(metricsA1, metricsB1) {
		t.Errorf("/metrics is not byte-stable across identical runs:\nrun1:\n%s\nrun2:\n%s", metricsA1, metricsB1)
	}
	checkGolden(t, "golden_stats.json", stats1)
	checkGolden(t, "golden_hubstate.json", state1)
	checkGolden(t, "golden_metrics.txt", metricsA1)
}
