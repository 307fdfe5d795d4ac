package hub

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
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

	bytesPer, allocsPer := exchangeAllocs(t, handler, body, 50)
	t.Logf("one exchange: %.0f bytes, %.0f allocations", bytesPer, allocsPer)
	// 10% above the measured 18.2 KB and 275. The same exchange took
	// 21.3 KB and 339 while the hub built and rendered a program tree
	// per pushed seed, and 47.3 KB and 409 while the cover, the request
	// and the reply were encoded into growing buffers, the body was
	// read through io.ReadAll and each decoded frame was a heap cursor.
	const maxBytes, maxAllocs = 20_000, 302
	if bytesPer > maxBytes || allocsPer > maxAllocs {
		t.Errorf("one exchange allocates %.0f bytes in %.0f allocations, budget %d in %d", bytesPer, allocsPer, maxBytes, maxAllocs)
	}
}

// exchangeAllocs serves n syncs of body through handler and returns the
// bytes and allocations per exchange. Building the requests is off the
// books.
func exchangeAllocs(t *testing.T, handler http.Handler, body []byte, n int) (bytesPer, allocsPer float64) {
	t.Helper()
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
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestPushValidationAllocatesNothing: the hub checks pushed canonical
// text in place (prog.Canonical) instead of building and rendering a
// program per seed, so past the wire decode a sync that pushes seeds
// the hub holds costs the same however many it pushes. A tree per seed
// costs dozens of allocations each.
func TestPushValidationAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	tgt := targetFor(t, "dm")
	h, _, reg := fullHub(t, tgt)
	handler := h.Handler()
	h.mu.Lock()
	held := append([]seedpool.SeedState(nil), h.states...)
	h.mu.Unlock()
	// costs is the allocations of one sync pushing k held seeds, and of
	// decoding its request.
	costs := func(k int) (sync, decode float64) {
		req := SyncRequest{WorkerID: reg.WorkerID, LeaseID: reg.LeaseID, SinceGen: 1 << 30, Seeds: held[:k]}
		body := EncodeSyncRequest(&req)
		serve(t, handler, "/v1/sync", BinaryContentType, body, nil)
		_, sync = exchangeAllocs(t, handler, body, 20)
		decode = testing.AllocsPerRun(20, func() { DecodeSyncRequest(body) })
		return sync, decode
	}
	const few, many = 8, 64
	fewSync, fewDecode := costs(few)
	manySync, manyDecode := costs(many)
	perSeed := ((manySync - manyDecode) - (fewSync - fewDecode)) / (many - few)
	t.Logf("a sync pushing %d held seeds allocates %.0f times (decode %.0f), pushing %d %.0f (decode %.0f): %.2f per seed past the decode",
		few, fewSync, fewDecode, many, manySync, manyDecode, perSeed)
	if perSeed >= 0.5 {
		t.Errorf("pushed seeds cost %.2f allocations each past the wire decode, want none", perSeed)
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
	wc := fuzz.CrashReport{Title: "KASAN: use-after-free in dm_ioctl", Repro: prog.NewGen(tgt, 3).Generate(3).Serialize(), Count: 2}
	wk := &workerStateJSON{ID: "w1"}
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
