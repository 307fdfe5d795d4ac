package hub

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/telemetry"
	"kernelgpt/internal/vkernel"
)

// scrapeValue extracts one metric line's integer value from an
// exposition body.
func scrapeValue(t *testing.T, body []byte, line string) int64 {
	t.Helper()
	for _, l := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(l, line+" ") {
			var v int64
			if _, err := fmt.Sscanf(l[len(line)+1:], "%d", &v); err != nil {
				t.Fatalf("parse %q: %v", l, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not in scrape:\n%s", line, body)
	return 0
}

// TestMetricsReconcileWithStats asserts the two monitoring surfaces
// agree: syzhub_sync_service_ns _sum/_count equal /v1/stats'
// sync.service_ns_sum/count, and the byte counters equal its
// bytes_sum — the CI hub-smoke reconciliation, in-process.
func TestMetricsReconcileWithStats(t *testing.T) {
	tgt := targetFor(t, "dm")
	store, err := corpusstore.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(tgt, store, WithMetrics(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	ctx := context.Background()
	c, err := Dial(ctx, srv.URL, "alpha", tgt)
	if err != nil {
		t.Fatal(err)
	}
	cover := vkernel.NewCoverSet(16)
	cover.Add(3)
	for i := 0; i < 3; i++ {
		if _, err := c.Sync(ctx, fuzz.SyncState{Cover: cover, Execs: (i + 1) * 100}); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	if got := scrapeValue(t, body, "syzhub_sync_service_ns_count"); got != int64(st.Sync.Count) {
		t.Errorf("sync service count: metrics %d, stats %d", got, st.Sync.Count)
	}
	if got := scrapeValue(t, body, "syzhub_sync_service_ns_sum"); got != st.Sync.ServiceNsSum {
		t.Errorf("sync service sum: metrics %d, stats %d", got, st.Sync.ServiceNsSum)
	}
	if got := scrapeValue(t, body, "syzhub_sync_bytes_total"); got != st.Sync.BytesSum {
		t.Errorf("sync bytes: metrics %d, stats %d", got, st.Sync.BytesSum)
	}
	if got := scrapeValue(t, body, `syzhub_lease_events_total{event="grant"}`); got != 1 {
		t.Errorf("lease grants = %d, want 1", got)
	}
}

// TestFlightDumpOnRequestFailure asserts a failed hub request dumps
// the flight ring, with the failing request as the final event.
func TestFlightDumpOnRequestFailure(t *testing.T) {
	tgt := targetFor(t, "dm")
	store, err := corpusstore.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	h, err := New(tgt, store,
		WithMetrics(telemetry.NewRegistry()),
		WithFlightRecorder(telemetry.NewFlightRecorder(dir, 32, nil)))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	// A healthy request first, so the ring has context to dump.
	if _, err := http.Get(srv.URL + "/v1/stats"); err != nil {
		t.Fatal(err)
	}
	// A sync stream whose magic carries an unsupported version byte
	// fails with 400 and must trigger a dump.
	body := []byte{'S', 'H', 'B', ProtoVersion + 1, frameEnd, 0x00}
	resp, err := http.Post(srv.URL+"/v1/sync", BinaryContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(dumps))
	}
	reason, events, err := telemetry.ReadFlightDump(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	if reason != "http-400" {
		t.Errorf("dump reason = %q, want http-400", reason)
	}
	last := events[len(events)-1]
	if last.Span != "http" || !strings.Contains(last.Detail, "/v1/sync -> 400") {
		t.Errorf("final event is not the failing request: %+v", last)
	}
	if events[0].Span != "http" || !strings.Contains(events[0].Detail, "/v1/stats -> 200") {
		t.Errorf("ring lost the preceding activity: %+v", events[0])
	}
}
