package hub

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// benchSyncRequest is a fleet-representative exchange: a checkpoint's
// worth of fresh seeds, a clustered cover delta, and one crash.
func benchSyncRequest() *SyncRequest {
	req := &SyncRequest{
		WorkerID: "w17",
		LeaseID:  "L17.abcdef",
		SinceGen: 9,
		Stats: WorkerStats{
			Execs: 120000, Cover: 4800, Crashes: 2,
			Ops: []fuzz.OpStat{
				{Name: "insert", Picks: 400, NewBlocks: 90},
				{Name: "mutate-arg", Picks: 700, NewBlocks: 40},
				{Name: "splice", Picks: 300, NewBlocks: 25},
			},
		},
	}
	for i := 0; i < 32; i++ {
		req.Seeds = append(req.Seeds, seedpool.SeedState{
			Text: fmt.Sprintf("r0 = open(dev%d)\nioctl(r0, CMD%d, %d)\nclose(r0)\n", i, i%7, i*13),
			Prio: 100 + i, Bonus: i % 3, Op: "insert",
		})
	}
	cover := &vkernel.CoverSet{}
	for b := vkernel.BlockID(6000); b < 6400; b++ {
		cover.Add(b)
	}
	for b := vkernel.BlockID(7000); b < 12000; b += 17 {
		cover.Add(b)
	}
	req.CoverDelta = cover.EncodeDelta(nil)
	req.Crashes = []fuzz.CrashReport{
		{Title: "KASAN: slab-out-of-bounds in cec_transmit", Repro: "r0 = open(cec)\n", Count: 4},
	}
	return req
}

// BenchmarkHubSyncRoundtrip measures the codec hot path: one sync
// request encoded and decoded through the binary wire format.
func BenchmarkHubSyncRoundtrip(b *testing.B) {
	req := benchSyncRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := EncodeSyncRequest(req)
		if _, err := DecodeSyncRequest(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// fullPool returns a pool of n distinct generated seeds.
func fullPool(tgt *prog.Target, n int) *seedpool.Pool {
	g := prog.NewGen(tgt, 11)
	pool := seedpool.New(n)
	seen := map[string]bool{}
	for i := 0; pool.Len() < n; i++ {
		p := g.Generate(2 + i%3)
		if text := p.Serialize(); !seen[text] {
			seen[text] = true
			pool.Add(p, 1+i%50, "insert")
		}
	}
	return pool
}

// storeFiles stats every file of a store directory.
func storeFiles(t testing.TB, dir string) map[string]os.FileInfo {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]os.FileInfo{}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi
	}
	return out
}

// fullHub returns a hub at the default capacity whose corpus is full,
// its store directory, and a worker registered with it. The state
// sidecar is kept out of the store directory, so that holds only what
// the store writes.
func fullHub(t testing.TB, tgt *prog.Target) (*Hub, string, RegisterResponse) {
	t.Helper()
	dir := t.TempDir()
	store, err := corpusstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(tgt, store, WithStatePath(filepath.Join(t.TempDir(), stateFile)))
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
	push := SyncRequest{WorkerID: reg.WorkerID, LeaseID: reg.LeaseID}
	for _, st := range fullPool(tgt, seedpool.DefaultCapacity).Export() {
		push.Seeds = append(push.Seeds, seedpool.SeedState{Text: st.Text, Prio: st.Prio})
	}
	serve(t, handler, "/v1/sync", BinaryContentType, EncodeSyncRequest(&push), nil)
	if n := h.Stats().Seeds; n != seedpool.DefaultCapacity {
		t.Fatalf("hub holds %d seeds, want a full %d", n, seedpool.DefaultCapacity)
	}
	return h, dir, reg
}

// serve runs one POST through the hub's handler in-process, failing on
// anything but 200, and decodes a JSON reply into out when out is set.
func serve(t testing.TB, handler http.Handler, path, contentType string, body []byte, out any) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d %s", path, w.Code, w.Body.Bytes())
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkHubMergeOneSeed is the cost of keeping a hub attached once
// its corpus is full: one sync that pushes one admissible seed into a
// hub holding seedpool.DefaultCapacity — decode, merge, save, diff,
// persist. It times a filesystem, so it is history, not a gate row.
func BenchmarkHubMergeOneSeed(b *testing.B) {
	tgt := targetFor(b, "dm")
	h, _, reg := fullHub(b, tgt)
	handler := h.Handler()
	g := prog.NewGen(tgt, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		body := EncodeSyncRequest(&SyncRequest{
			WorkerID: reg.WorkerID, LeaseID: reg.LeaseID, SinceGen: i + 1,
			Seeds: []seedpool.SeedState{{Text: g.Generate(4).Serialize(), Prio: 10_000 + i}},
		})
		b.StartTimer()
		serve(b, handler, "/v1/sync", BinaryContentType, body, nil)
	}
}
