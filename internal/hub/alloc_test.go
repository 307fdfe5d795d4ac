package hub

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/prog"
)

// raceEnabled reports a race-detector build, whose allocations are
// not the product's.
var raceEnabled bool

// TestHubSyncAllocs is the hub's budget for one benchSyncRequest
// exchange through its handler, sidecar on: decode, push validation,
// cover merge, crash folding, pull diff, persist and the encoded
// reply. The first exchange commits the request's cover and crash;
// the budget is per repeat, the shape of a checkpoint that brought
// nothing new. Building the HTTP requests is off the books.
func TestHubSyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	tgt := targetFor(t, "dm")
	dir := t.TempDir()
	store, err := corpusstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(tgt, store, WithStatePath(filepath.Join(dir, "state.json")))
	if err != nil {
		t.Fatal(err)
	}
	handler := h.Handler()
	register, err := json.Marshal(RegisterRequest{Version: ProtoVersion, Name: "w", Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	var reg RegisterResponse
	serve(t, handler, "/v1/register", JSONContentType, register, &reg)
	req := benchSyncRequest()
	req.WorkerID, req.LeaseID = reg.WorkerID, reg.LeaseID
	body := EncodeSyncRequest(req)
	serve(t, handler, "/v1/sync", BinaryContentType, body, nil)

	const n = 50
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/sync", bytes.NewReader(body))
		reqs[i].Header.Set("Content-Type", BinaryContentType)
		recs[i] = httptest.NewRecorder()
		recs[i].Body.Grow(1 << 10)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range reqs {
		handler.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("sync: HTTP %d %s", rec.Code, rec.Body.Bytes())
		}
	}
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / n
	allocsPer := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("one exchange: %.0f bytes, %.0f allocations", bytesPer, allocsPer)
	// 10% above the measured 21.3 KB and 339. The same exchange took
	// 47.3 KB and 409 while the cover, the request and the reply were
	// encoded into growing buffers, the body was read through
	// io.ReadAll and each decoded frame was a heap cursor.
	const maxBytes, maxAllocs = 23_400, 373
	if bytesPer > maxBytes || allocsPer > maxAllocs {
		t.Errorf("one exchange allocates %.0f bytes in %.0f allocations, budget %d in %d", bytesPer, allocsPer, maxBytes, maxAllocs)
	}
}

// TestRetriedCrashAllocatesNothing: a crash report whose count the hub
// already holds for the worker is dropped before its repro is parsed,
// so a retried sync pays nothing for its crashes.
func TestRetriedCrashAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	tgt := targetFor(t, "dm")
	h, _ := newHub(t, tgt)
	wc := WireCrash{Title: "KASAN: use-after-free in dm_ioctl", Repro: prog.NewGen(tgt, 3).Generate(3).Serialize(), Count: 2}
	wk := &worker{id: "w1", crashCounts: map[string]int{}}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recordCrash(wk, wc)
	if n := testing.AllocsPerRun(20, func() { h.recordCrash(wk, wc) }); n != 0 {
		t.Errorf("a retried crash report allocates %.0f times, want 0", n)
	}
	rec := h.crashes[wc.Title]
	if len(h.crashes) != 1 || rec.Count != 2 || rec.Reports != 1 {
		t.Fatalf("retries changed the table: %d records, %+v", len(h.crashes), rec)
	}
}
