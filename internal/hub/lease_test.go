package hub

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/telemetry"
	"kernelgpt/internal/vkernel"
)

// fakeClock is a manually advanced hub clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// openStore opens the corpus store in dir.
func openStore(t *testing.T, dir string) *corpusstore.Store {
	t.Helper()
	store, err := corpusstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func coverOf(blocks ...vkernel.BlockID) *vkernel.CoverSet {
	s := &vkernel.CoverSet{}
	for _, b := range blocks {
		s.Add(b)
	}
	return s
}

// TestLapsedLeaseSyncsInOneRequest: a worker that goes past its
// lease's deadline between two syncs — a partition, a slow checkpoint —
// still holds its lease. Its next sync is served as one /v1/sync, with
// no re-registration: same identity, deltas only, crash counts
// differenced against what the hub already holds.
func TestLapsedLeaseSyncsInOneRequest(t *testing.T) {
	tgt := targetFor(t, "dm")
	clock := &fakeClock{t: time.Unix(1000, 0)}
	hub, err := New(tgt, openStore(t, t.TempDir()), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	requests := map[string]int{}
	inner := hub.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests[r.URL.Path]++
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	counted := func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := requests
		requests = map[string]int{}
		return out
	}
	ctx := context.Background()
	c, err := Dial(ctx, srv.URL, "w", tgt)
	if err != nil {
		t.Fatal(err)
	}
	id0, lease0 := c.WorkerID(), c.leaseID
	if lease0 == "" {
		t.Fatal("registration granted no lease")
	}
	repro := prog.NewGen(tgt, 11).Generate(2).Serialize()
	if _, err := c.Sync(ctx, fuzz.SyncState{
		Cover: coverOf(1, 4, 9), Execs: 100,
		Crashes: []fuzz.CrashReport{{Title: "bug-p", Repro: repro, Count: 1}},
	}); err != nil {
		t.Fatal(err)
	}

	// Partition: the worker goes several TTLs without a sync.
	clock.Advance(5 * leaseTTL)
	st := hub.Stats()
	if st.ActiveLeases != 0 || st.ExpiredLeases != 1 || st.Workers[0].Lease != LeaseExpired {
		t.Fatalf("lapsed lease labelled active %d expired %d (%q)", st.ActiveLeases, st.ExpiredLeases, st.Workers[0].Lease)
	}

	// The worker returns with grown cumulative state.
	counted()
	if _, err := c.Sync(ctx, fuzz.SyncState{
		Cover: coverOf(1, 4, 9, 16), Execs: 200,
		Crashes: []fuzz.CrashReport{{Title: "bug-p", Repro: repro, Count: 2}},
	}); err != nil {
		t.Fatalf("sync past the lease deadline: %v", err)
	}
	if got := counted(); got["/v1/sync"] != 1 || got["/v1/register"] != 0 || len(got) != 1 {
		t.Fatalf("sync past the deadline took requests %v, want one /v1/sync", got)
	}
	if c.WorkerID() != id0 || c.leaseID != lease0 {
		t.Fatalf("identity changed: %s/%s -> %s/%s", id0, lease0, c.WorkerID(), c.leaseID)
	}
	st = hub.Stats()
	if len(st.Workers) != 1 || st.ActiveLeases != 1 || st.ExpiredLeases != 0 {
		t.Fatalf("after the sync: %d workers, active %d expired %d, want 1, 1, 0",
			len(st.Workers), st.ActiveLeases, st.ExpiredLeases)
	}
	if st.UnionCover != 4 {
		t.Fatalf("union cover %d, want 4", st.UnionCover)
	}
	// Cumulative count 2 differenced against the held 1, not replayed.
	if got := hub.Crashes(); len(got) != 1 || got[0].Count != 2 {
		t.Fatalf("crash count double-counted past the deadline: %+v", got)
	}

	// A Final sync releases the lease.
	if _, err := c.Sync(ctx, fuzz.SyncState{Cover: coverOf(1, 4, 9, 16), Execs: 300, Final: true}); err != nil {
		t.Fatal(err)
	}
	st = hub.Stats()
	if st.ActiveLeases != 0 || st.ReleasedLeases != 1 {
		t.Fatalf("final sync did not release the lease: %+v", st)
	}
}

// TestReadsNeverWrite: labelling a lease expired is a read. After the
// deadline passes, GET /v1/stats and /v1/crashes change neither the
// state sidecar nor what /metrics reports. The GET handlers are called
// without the request-counting middleware, which counts every request
// by design.
func TestReadsNeverWrite(t *testing.T) {
	tgt := targetFor(t, "dm")
	clock := &fakeClock{t: time.Unix(1000, 0)}
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	h, err := New(tgt, openStore(t, dir), WithClock(clock.Now), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	var w RegisterResponse
	serve(t, h.Handler(), "/v1/register", JSONContentType,
		[]byte(`{"version":1,"name":"w","fingerprint":"fp"}`), &w)
	snapshot := func() (sidecar, metrics []byte) {
		t.Helper()
		sidecar, err := os.ReadFile(filepath.Join(dir, stateFile))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return sidecar, rec.Body.Bytes()
	}
	sidecar0, metrics0 := snapshot()
	clock.Advance(5 * leaseTTL)
	for i := 0; i < 2; i++ {
		for path, handle := range map[string]http.HandlerFunc{"/v1/stats": h.handleStats, "/v1/crashes": h.handleCrashes} {
			rec := httptest.NewRecorder()
			handle(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s answered %d", path, rec.Code)
			}
		}
	}
	if st := h.Stats(); st.ExpiredLeases != 1 {
		t.Fatalf("lease past its deadline not labelled expired: %+v", st)
	}
	sidecar1, metrics1 := snapshot()
	if !bytes.Equal(sidecar0, sidecar1) {
		t.Errorf("reads rewrote the sidecar:\nbefore: %s\nafter:  %s", sidecar0, sidecar1)
	}
	if !bytes.Equal(metrics0, metrics1) {
		t.Errorf("reads changed /metrics:\nbefore:\n%s\nafter:\n%s", metrics0, metrics1)
	}
}

// TestExpiredLeaseSurvivesRestart: a lease labelled expired stays
// expired across a restart — the sidecar stores its deadline, and the
// downtime counts toward the label — instead of coming back active.
func TestExpiredLeaseSurvivesRestart(t *testing.T) {
	tgt := targetFor(t, "dm")
	clock := &fakeClock{t: time.Unix(1000, 0)}
	dir := t.TempDir()
	open := func() *Hub {
		t.Helper()
		h, err := New(tgt, openStore(t, dir), WithClock(clock.Now))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1 := open()
	var reg RegisterResponse
	serve(t, h1.Handler(), "/v1/register", JSONContentType,
		[]byte(`{"version":1,"name":"w","fingerprint":"fp"}`), &reg)
	clock.Advance(5 * leaseTTL)
	if st := h1.Stats(); st.ActiveLeases != 0 || st.ExpiredLeases != 1 {
		t.Fatalf("lease past its deadline: active %d expired %d", st.ActiveLeases, st.ExpiredLeases)
	}

	st := open().Stats()
	if st.ActiveLeases != 0 || st.ExpiredLeases != 1 || len(st.Workers) != 1 || st.Workers[0].Lease != LeaseExpired {
		t.Fatalf("reported expiry undone by a restart: active %d expired %d, workers %+v",
			st.ActiveLeases, st.ExpiredLeases, st.Workers)
	}
}

// sidecarBytes reads the hub's state sidecar as it is on disk.
func sidecarBytes(t *testing.T, h *Hub) []byte {
	t.Helper()
	data, err := os.ReadFile(h.statePath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLeaseRequired: worker ids are guessable (w1, w2, …), so a sync
// that names a worker without presenting that worker's current lease —
// none at all, or another worker's — must get the 404
// re-register hint and leave the hub untouched, its sidecar byte for
// byte: it may not push into, renew or Final-release somebody else's
// lease.
func TestLeaseRequired(t *testing.T) {
	tgt := targetFor(t, "dm")
	fixed := time.Unix(1_700_000_000, 0)
	hub, srv := newHub(t, tgt, WithClock(func() time.Time { return fixed }))
	var victim, other RegisterResponse
	postJSON(t, srv.URL+"/v1/register", RegisterRequest{Version: ProtoVersion, Name: "victim", Fingerprint: "fp"}, &victim)
	postJSON(t, srv.URL+"/v1/register", RegisterRequest{Version: ProtoVersion, Name: "other", Fingerprint: "fp"}, &other)
	before, sidecar := statsBytes(t, srv.URL), sidecarBytes(t, hub)
	for _, lease := range []string{"", other.LeaseID} {
		for _, final := range []bool{false, true} {
			req := SyncRequest{
				WorkerID: victim.WorkerID, LeaseID: lease, Final: final,
				CoverDelta: coverOf(1, 2, 3).EncodeDelta(nil),
				Crashes:    []fuzz.CrashReport{{Title: "forged", Repro: "x", Count: 9}},
				Stats:      WorkerStats{Execs: 1 << 20},
			}
			code, msg := postRaw(t, srv.URL+"/v1/sync", BinaryContentType, bytes.NewReader(EncodeSyncRequest(&req)))
			if code != http.StatusNotFound || !strings.Contains(msg, "re-register") {
				t.Errorf("sync for %s with lease %q (final=%v): HTTP %d %q, want 404 with the re-register hint",
					victim.WorkerID, lease, final, code, msg)
			}
		}
	}
	if after := statsBytes(t, srv.URL); !bytes.Equal(before, after) {
		t.Errorf("lease-less requests changed /v1/stats:\nbefore: %s\nafter:  %s", before, after)
	}
	if after := sidecarBytes(t, hub); !bytes.Equal(sidecar, after) {
		t.Errorf("lease-less requests rewrote the sidecar:\nbefore: %s\nafter:  %s", sidecar, after)
	}
	// The rightful owner is unaffected.
	ok := SyncRequest{WorkerID: victim.WorkerID, LeaseID: victim.LeaseID, Final: true}
	if code, _ := rawSync(t, srv.URL, ok); code != http.StatusOK {
		t.Fatalf("sync with the worker's own lease answered %d", code)
	}
}

// rawSync is the raw /v1/sync client for protocol-level tests: it
// POSTs req as a binary frame stream and returns the HTTP status and
// the Retry-After header. A 200 reply must itself be a decodable binary
// stream.
func rawSync(t *testing.T, base string, req SyncRequest) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sync", BinaryContentType, bytes.NewReader(EncodeSyncRequest(&req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != BinaryContentType {
			t.Fatalf("200 sync reply has Content-Type %q, want %s", ct, BinaryContentType)
		}
		if _, err := DecodeSyncResponse(data); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// writeSyncResponse answers a stub hub's /v1/sync the way the real one
// does: 200 with a binary frame stream.
func writeSyncResponse(w http.ResponseWriter, resp SyncResponse) {
	w.Header().Set("Content-Type", BinaryContentType)
	w.Write(EncodeSyncResponse(&resp))
}

// TestSyncBackpressure: a hub at its in-flight bound sheds syncs with
// 429 + Retry-After, and the per-worker rate limit rejects arrivals
// faster than the configured interval (Final syncs exempt) with the
// wait rounded up to whole seconds. A shed sync changes nothing, its
// sidecar byte for byte; a sync whose store save fails is still folded
// into the worker's sync aggregate and persisted before its 500.
func TestSyncBackpressure(t *testing.T) {
	tgt := targetFor(t, "dm")
	clock := &fakeClock{t: time.Unix(3000, 0)}
	hub, srv := newHub(t, tgt, WithClock(clock.Now),
		WithMaxInflight(2), WithMinSyncInterval(10*time.Second))
	var reg RegisterResponse
	postJSON(t, srv.URL+"/v1/register", RegisterRequest{Version: ProtoVersion, Name: "w", Fingerprint: "fp"}, &reg)
	req := SyncRequest{WorkerID: reg.WorkerID, LeaseID: reg.LeaseID}

	// Occupy both in-flight slots; the next sync is shed before it
	// queues.
	sidecar := sidecarBytes(t, hub)
	hub.inflight.Add(2)
	if code, ra := rawSync(t, srv.URL, req); code != http.StatusTooManyRequests || ra != "1" {
		t.Fatalf("full hub answered %d (Retry-After %q), want 429 with Retry-After 1", code, ra)
	}
	hub.inflight.Add(-2)
	if !bytes.Equal(sidecar, sidecarBytes(t, hub)) {
		t.Fatal("an in-flight shed rewrote the sidecar")
	}

	if code, _ := rawSync(t, srv.URL, req); code != http.StatusOK {
		t.Fatalf("first sync answered %d", code)
	}
	// Too soon: 7 s of the 10 s interval are left, so the hint is 8.
	sidecar = sidecarBytes(t, hub)
	clock.Advance(3 * time.Second)
	if code, ra := rawSync(t, srv.URL, req); code != http.StatusTooManyRequests || ra != "8" {
		t.Fatalf("rapid re-sync answered %d (Retry-After %q), want 429 with Retry-After 8", code, ra)
	}
	if !bytes.Equal(sidecar, sidecarBytes(t, hub)) {
		t.Fatal("a rate-limited sync rewrote the sidecar")
	}
	// A Final sync is never rate-limited — campaigns must be able to
	// deliver their last exchange.
	final := req
	final.Final = true
	if code, _ := rawSync(t, srv.URL, final); code != http.StatusOK {
		t.Fatalf("final sync rate-limited: %d", code)
	}
	if st := hub.Stats(); st.Sync.Count != 2 {
		t.Fatalf("shed syncs leaked into the aggregates: %+v", st.Sync)
	}

	// A directory where the store writes the pushed seed's file makes the
	// save fail.
	text := prog.NewGen(tgt, 5).Generate(3).Serialize()
	if err := os.Mkdir(filepath.Join(hub.store.Dir(), corpusstore.FileFor(text)+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	failing := final
	failing.Seeds = []seedpool.SeedState{{Text: text, Prio: 1}}
	before := hub.Stats().Sync
	if code, _ := rawSync(t, srv.URL, failing); code != http.StatusInternalServerError {
		t.Fatalf("sync whose store save fails answered %d, want 500", code)
	}
	var doc hubStateJSON
	if err := json.Unmarshal(sidecarBytes(t, hub), &doc); err != nil {
		t.Fatal(err)
	}
	got, payload := doc.Workers[0].Sync, int64(len(EncodeSyncRequest(&failing)))
	if got.Count != before.Count+1 || got.BytesSum != before.BytesSum+payload || hub.Stats().Sync != got {
		t.Fatalf("failed save persisted sync aggregate %+v, want count %d and %d bytes more than %+v",
			got, before.Count+1, payload, before)
	}
}

// TestClientHonorsRetryAfter: the client's retry loop absorbs 429 by
// sleeping the server's Retry-After before retrying.
func TestClientHonorsRetryAfter(t *testing.T) {
	tgt := targetFor(t, "dm")
	var hits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/register" {
			writeJSON(w, http.StatusOK, RegisterResponse{Version: ProtoVersion, WorkerID: "w1", LeaseID: "L1"})
			return
		}
		hits++
		if hits == 1 {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "busy")
			return
		}
		writeSyncResponse(w, SyncResponse{})
	}))
	defer srv.Close()
	c, err := Dial(context.Background(), srv.URL, "w", tgt)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Sync(context.Background(), fuzz.SyncState{Cover: &vkernel.CoverSet{}}); err != nil {
		t.Fatalf("sync through backpressure: %v", err)
	}
	if hits != 2 {
		t.Fatalf("server saw %d sync attempts, want 2", hits)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("client retried after %v, ignoring Retry-After: 1", elapsed)
	}
}

// TestHubRestartWithStateSidecar: with the state sidecar moved out of
// the store (WithStatePath), a restarted hub restores union cover, the
// crash table, and worker leases from there — a
// surviving client keeps syncing deltas with no re-registration and
// no replay, and nothing double-counts.
func TestHubRestartWithStateSidecar(t *testing.T) {
	tgt := targetFor(t, "dm")
	dir := t.TempDir()
	statePath := filepath.Join(dir, "hubstate.json")
	store, err := corpusstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := New(tgt, store, WithStatePath(statePath))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h1.Handler())
	defer srv.Close()
	ctx := context.Background()
	c, err := Dial(ctx, srv.URL, "w", tgt)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.NewGen(tgt, 5)
	repro := g.Generate(2).Serialize()
	if _, err := c.Sync(ctx, fuzz.SyncState{
		Seeds:   []seedpool.SeedState{stateOf(g.Generate(3), 2)},
		Cover:   coverOf(1, 4, 9),
		Execs:   200,
		Crashes: []fuzz.CrashReport{{Title: "bug-r", Repro: repro, Count: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	id0 := c.WorkerID()

	// Restart over the same store and sidecar.
	store2, err := corpusstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := New(tgt, store2, WithStatePath(statePath))
	if err != nil {
		t.Fatal(err)
	}
	srv.Config.Handler = h2.Handler()

	// The next sync ships only what is new. The restored hub accepts
	// the existing lease — no 404, no re-registration, no full replay.
	if _, err := c.Sync(ctx, fuzz.SyncState{
		Cover:   coverOf(1, 4, 9, 16),
		Execs:   300,
		Crashes: []fuzz.CrashReport{{Title: "bug-r", Repro: repro, Count: 4}},
	}); err != nil {
		t.Fatalf("sync across sidecar restart: %v", err)
	}
	if c.WorkerID() != id0 {
		t.Fatalf("client re-registered despite restored lease: %s -> %s", id0, c.WorkerID())
	}
	st := h2.Stats()
	if len(st.Workers) != 1 || st.Workers[0].ID != id0 {
		t.Fatalf("restart lost or duplicated the worker: %+v", st.Workers)
	}
	if st.UnionCover != 4 {
		t.Fatalf("restored union cover wrong: %d, want 4 (3 restored + 1 delta)", st.UnionCover)
	}
	// Cumulative count 4 differenced against the restored 3: +1, not
	// +4 — the restart did not double-count.
	if got := h2.Crashes(); len(got) != 1 || got[0].Count != 4 {
		t.Fatalf("crash table double-counted across restart: %+v", got)
	}
	if st.Seeds != 1 || st.Generation == 0 {
		t.Fatalf("store lineage broken: %d seeds at gen %d", st.Seeds, st.Generation)
	}

	// A sidecar written before /v1/sync went binary-only (testdata
	// fixture, as PR 12 wrote it) still carries the JSON-equivalent byte
	// sum in every sync aggregate; it must restore as before, the dropped
	// field ignored.
	old, err := os.ReadFile(filepath.Join("testdata", "hubstate_pr12.json"))
	if err != nil {
		t.Fatal(err)
	}
	strict := json.NewDecoder(bytes.NewReader(old))
	strict.DisallowUnknownFields()
	if strict.Decode(&hubStateJSON{}) == nil {
		t.Fatal("fixture carries no field this build has dropped")
	}
	oldPath := filepath.Join(dir, "old-hubstate.json")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	h3, err := New(tgt, store2, WithStatePath(oldPath))
	if err != nil {
		t.Fatalf("restart over the PR 12 sidecar: %v", err)
	}
	st = h3.Stats()
	if len(st.Workers) != 2 || st.Sync.Count != 1 || st.Sync.BytesSum != 19616 || st.UnionCover != 3 || st.Crashes != 1 {
		t.Fatalf("old sidecar restored wrong: %+v", st)
	}
}

// TestHierarchicalHub: a leaf hub aggregates its workers' state
// upward to a root with the ordinary client machinery, pulls the
// root's corpus down into its own store, and releases its lease on
// final sync.
func TestHierarchicalHub(t *testing.T) {
	tgt := targetFor(t, "dm")
	root, rootSrv := newHub(t, tgt)
	leafStore, err := corpusstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := New(tgt, leafStore, WithParent(rootSrv.URL))
	if err != nil {
		t.Fatal(err)
	}
	leafSrv := httptest.NewServer(leaf.Handler())
	defer leafSrv.Close()
	ctx := context.Background()

	// Two workers feed the leaf.
	g := prog.NewGen(tgt, 9)
	repro := g.Generate(2).Serialize()
	c1, err := Dial(ctx, leafSrv.URL, "w-a", tgt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Sync(ctx, fuzz.SyncState{
		Seeds:   []seedpool.SeedState{stateOf(g.Generate(3), 3)},
		Cover:   coverOf(1, 2),
		Execs:   50,
		Crashes: []fuzz.CrashReport{{Title: "bug-h", Repro: repro, Count: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(ctx, leafSrv.URL, "w-b", tgt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Sync(ctx, fuzz.SyncState{
		Seeds: []seedpool.SeedState{stateOf(g.Generate(4), 2)},
		Cover: coverOf(2, 3),
		Execs: 60,
	}); err != nil {
		t.Fatal(err)
	}

	// Leaf → root: the aggregate flows up through one client.
	pc, err := Dial(ctx, rootSrv.URL, "leaf-1", tgt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaf.SyncParent(ctx, pc, false); err != nil {
		t.Fatal(err)
	}
	rst := root.Stats()
	if rst.UnionCover != 3 {
		t.Fatalf("root union cover %d, want 3", rst.UnionCover)
	}
	if rst.Seeds != leaf.Stats().Seeds {
		t.Fatalf("root has %d seeds, leaf %d", rst.Seeds, leaf.Stats().Seeds)
	}
	if got := root.Crashes(); len(got) != 1 || got[0].Count != 2 {
		t.Fatalf("crash did not aggregate upward: %+v", got)
	}
	if leaf.Stats().Parent != rootSrv.URL {
		t.Fatalf("leaf stats parent %q, want %q", leaf.Stats().Parent, rootSrv.URL)
	}

	// Root → leaf: a seed from a direct root worker flows down on the
	// next parent sync, then out to leaf workers through the ordinary
	// generation diff.
	c3, err := Dial(ctx, rootSrv.URL, "w-c", tgt)
	if err != nil {
		t.Fatal(err)
	}
	downProg := g.Generate(5).Detach()
	if _, err := c3.Sync(ctx, fuzz.SyncState{
		Seeds: []seedpool.SeedState{stateOf(downProg, 4)},
		Cover: coverOf(7),
	}); err != nil {
		t.Fatal(err)
	}
	imported, err := leaf.SyncParent(ctx, pc, false)
	if err != nil {
		t.Fatal(err)
	}
	if imported < 1 {
		t.Fatalf("parent pull imported %d seeds, want >= 1", imported)
	}
	out, err := c1.Sync(ctx, fuzz.SyncState{Cover: coverOf(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	want := downProg.Serialize()
	found := false
	for _, s := range out {
		if s.Prog.Serialize() == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("root seed did not reach the leaf worker: pulled %d seeds", len(out))
	}

	// Re-syncing upward is idempotent (client-side deltas).
	if _, err := leaf.SyncParent(ctx, pc, false); err != nil {
		t.Fatal(err)
	}
	if got := root.Crashes(); got[0].Count != 2 {
		t.Fatalf("upward re-sync double-counted: %+v", got)
	}

	// Shutdown: the final parent sync releases the leaf's lease.
	if _, err := leaf.SyncParent(ctx, pc, true); err != nil {
		t.Fatal(err)
	}
	for _, wk := range root.Stats().Workers {
		if wk.Name == "leaf-1" && wk.Lease != LeaseReleased {
			t.Fatalf("leaf lease not released at shutdown: %+v", wk)
		}
	}
}

// TestLeafCrashCountsReachRootPerTitle: a leaf holds one record per
// repro, its workers minimise the same bug to different repros, and the
// wire counts per title — so the leaf reports a title's records as their
// sum, and the root's total for the title tracks the leaf's through
// growth on either record.
func TestLeafCrashCountsReachRootPerTitle(t *testing.T) {
	tgt := targetFor(t, "dm")
	root, rootSrv := newHub(t, tgt)
	leaf, leafSrv := newHub(t, tgt, WithParent(rootSrv.URL))
	ctx := context.Background()
	g := prog.NewGen(tgt, 9)
	reproA, reproB := g.Generate(2).Serialize(), g.Generate(3).Serialize()
	wa, err := Dial(ctx, leafSrv.URL, "w-a", tgt)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := Dial(ctx, leafSrv.URL, "w-b", tgt)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Dial(ctx, rootSrv.URL, "leaf-1", tgt)
	if err != nil {
		t.Fatal(err)
	}
	total := func(h *Hub) int {
		n := 0
		for _, cr := range h.Crashes() {
			if cr.Title != "bug-h" {
				t.Fatalf("unexpected crash %+v", cr)
			}
			n += cr.Count
		}
		return n
	}
	for step, counts := range [][2]int{{2, 3}, {2, 5}, {4, 5}, {4, 5}} {
		for i, w := range []*Client{wa, wb} {
			repro := []string{reproA, reproB}[i]
			if _, err := w.Sync(ctx, fuzz.SyncState{
				Cover:   coverOf(1),
				Crashes: []fuzz.CrashReport{{Title: "bug-h", Repro: repro, Count: counts[i]}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := leaf.SyncParent(ctx, pc, false); err != nil {
			t.Fatal(err)
		}
		if got, want := total(root), counts[0]+counts[1]; total(leaf) != want || got != want {
			t.Fatalf("step %d: root counts %d hits of bug-h, leaf %d, workers reported %d", step, got, total(leaf), want)
		}
	}
}
