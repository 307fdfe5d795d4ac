package hub

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/prog"
)

// restoreFrom starts a hub over an empty store and the given sidecar
// bytes on a fixed clock.
func restoreFrom(t testing.TB, tgt *prog.Target, sidecar []byte) (*Hub, string, error) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "hubstate.json")
	if err := os.WriteFile(path, sidecar, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := corpusstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	fixed := time.Unix(1_700_000_000, 0)
	h, err := New(tgt, store, WithStatePath(path), WithClock(func() time.Time { return fixed }))
	return h, path, err
}

// TestStateV1CrashCountsMigrate: a version-1 sidecar keyed each worker's
// cumulative crash counts by repro. Restored by this build they are
// keyed by title, and the crash table, the worker bookkeeping and the
// hub-wide counts are what the fixture held. The worker's next report
// of the same title — under another repro, as a sharded campaign sends
// it — is credited with the growth only, and the sidecar is rewritten
// in the current version.
func TestStateV1CrashCountsMigrate(t *testing.T) {
	tgt := targetFor(t, "dm")
	old, err := os.ReadFile(filepath.Join("testdata", "hubstate_pr12.json"))
	if err != nil {
		t.Fatal(err)
	}
	h, path, err := restoreFrom(t, tgt, old)
	if err != nil {
		t.Fatal(err)
	}
	var doc hubStateJSON
	if err := json.Unmarshal(old, &doc); err != nil {
		t.Fatal(err)
	}
	want := CrashJSON{Title: "bug-a", Repro: doc.Crashes[0].Repro, FirstWorker: "w1", Count: 2, Reports: 1, Workers: 1}
	if got := h.Crashes(); len(got) != 1 || got[0] != want {
		t.Fatalf("version-1 crash table restored as %+v, want %+v", got, want)
	}
	st := h.Stats()
	if st.Crashes != 1 || st.CrashReports != 1 || st.UnionCover != 3 || st.Execs != 150 ||
		st.Sync.Count != 1 || st.Sync.BytesSum != 19616 || st.ActiveLeases != 2 {
		t.Fatalf("version-1 sidecar restored as %+v", st)
	}
	if c1, c2 := h.workers["w1"].CrashCounts, h.workers["w2"].CrashCounts; len(c1) != 1 || c1["bug-a"] != 2 || len(c2) != 0 {
		t.Fatalf("version-1 crash counts restored as w1 %v, w2 %v", c1, c2)
	}
	w1 := doc.Workers[0]
	grown := SyncRequest{
		WorkerID: w1.ID, LeaseID: w1.LeaseID,
		Crashes: []fuzz.CrashReport{{Title: "bug-a", Repro: "another repro of the same bug", Count: 5}},
	}
	serve(t, h.Handler(), "/v1/sync", BinaryContentType, EncodeSyncRequest(&grown), nil)
	total := 0
	for _, cr := range h.Crashes() {
		total += cr.Count
	}
	if total != 5 {
		t.Fatalf("hub counts %d hits of bug-a after a cumulative report of 5 (2 restored)", total)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc = hubStateJSON{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != stateVersion || len(doc.Workers[0].CrashCounts) != 1 || doc.Workers[0].CrashCounts["bug-a"] != 5 {
		t.Fatalf("sidecar rewritten as version %d with crash counts %v", doc.Version, doc.Workers[0].CrashCounts)
	}
	for _, v := range []string{`{"version":0}`, `{"version":4}`} {
		if _, _, err := restoreFrom(t, tgt, []byte(v)); err == nil || !strings.Contains(err.Error(), "not supported") {
			t.Errorf("sidecar %s: err = %v, want the version refused", v, err)
		}
	}
}

// TestStateMergesRecordsUnderOneTitle: a version-3 sidecar written while
// the crash table was keyed by repro holds one record per repro, so a
// title found under two repros has two records. It loads as one record
// per title: counts, reports and workers add up, the record listed
// first keeps its repro and first worker, and the sidecar is rewritten
// with the merged record.
func TestStateMergesRecordsUnderOneTitle(t *testing.T) {
	tgt := targetFor(t, "dm")
	sidecar := `{"version":3,"next_worker":3,"next_lease":3,"crash_reports":4,"start_unix_ns":1690000000000000000,"crashes":[` +
		`{"title":"bug-a","repro":"repro 1","first_worker":"w2","count":3,"reports":2,"workers":["w2","w3"]},` +
		`{"title":"bug-b","repro":"repro 2","first_worker":"w1","count":1,"reports":1,"workers":["w1"]},` +
		`{"title":"bug-a","repro":"repro 3","first_worker":"w1","count":4,"reports":1,"workers":["w1","w2"]}],` +
		`"workers":[{"id":"w1","lease_id":"L1.1","lease_deadline_ns":1690000000000000000,"gen":4,"stats":{"execs":5},"sync":{"count":1},"crash_counts":{"bug-a":4,"bug-b":1}}]}`
	h, path, err := restoreFrom(t, tgt, []byte(sidecar))
	if err != nil {
		t.Fatal(err)
	}
	want := []CrashJSON{
		{Title: "bug-a", Repro: "repro 1", FirstWorker: "w2", Count: 7, Reports: 3, Workers: 3},
		{Title: "bug-b", Repro: "repro 2", FirstWorker: "w1", Count: 1, Reports: 1, Workers: 1},
	}
	if got := h.Crashes(); !slices.Equal(got, want) {
		t.Fatalf("records under one title restored as %+v, want %+v", got, want)
	}
	if st := h.Stats(); st.Crashes != 2 || st.CrashReports != 4 {
		t.Fatalf("restored table counts %d crashes from %d reports, want 2 from 4", st.Crashes, st.CrashReports)
	}
	if got := h.crashes["bug-a"].Workers; !slices.Equal(got, []string{"w1", "w2", "w3"}) {
		t.Fatalf("merged workers %v, want w1 w2 w3", got)
	}
	grown := SyncRequest{
		WorkerID: "w1", LeaseID: "L1.1",
		Crashes: []fuzz.CrashReport{{Title: "bug-a", Repro: "repro 3", Count: 6}},
	}
	serve(t, h.Handler(), "/v1/sync", BinaryContentType, EncodeSyncRequest(&grown), nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc hubStateJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Crashes) != 2 || doc.Crashes[0].Count != 9 || doc.Crashes[0].Reports != 4 || doc.Crashes[0].Repro != "repro 1" {
		t.Fatalf("sidecar rewritten with crash records %+v", doc.Crashes)
	}
	for _, field := range []string{`"gen"`, `"crash_reports"`} {
		if bytes.Contains(data, []byte(field)) {
			t.Errorf("rewritten sidecar still carries %s", field)
		}
	}
}

// TestStateV2LeaseStatesLoad: a version-2 sidecar stored each lease's
// state, not its deadline. Restored by this build, "active" is active
// (a fresh TTL from load time), "expired" expired, and "released"
// released, and a sync of each lease is served.
func TestStateV2LeaseStatesLoad(t *testing.T) {
	tgt := targetFor(t, "dm")
	for _, state := range []string{LeaseActive, LeaseExpired, LeaseReleased} {
		sidecar := fmt.Sprintf(`{"version":2,"next_worker":1,"next_lease":1,"start_unix_ns":1690000000000000000,`+
			`"workers":[{"id":"w1","name":"w","lease_id":"L1.1","lease_state":%q,"final":%v,"last_sync_ns":1690000000000000000,"stats":{"execs":5},"sync":{"count":1}}]}`,
			state, state == LeaseReleased)
		h, _, err := restoreFrom(t, tgt, []byte(sidecar))
		if err != nil {
			t.Fatalf("%s: %v", state, err)
		}
		st := h.Stats()
		if len(st.Workers) != 1 || st.Workers[0].Lease != state {
			t.Fatalf("version-2 lease %q restored as %+v", state, st.Workers)
		}
		counts := map[string]int{LeaseActive: st.ActiveLeases, LeaseExpired: st.ExpiredLeases, LeaseReleased: st.ReleasedLeases}
		if counts[state] != 1 || st.ActiveLeases+st.ExpiredLeases+st.ReleasedLeases != 1 {
			t.Fatalf("version-2 lease %q counted as %v", state, counts)
		}
		req := SyncRequest{WorkerID: "w1", LeaseID: "L1.1", Stats: WorkerStats{Execs: 6}}
		serve(t, h.Handler(), "/v1/sync", BinaryContentType, EncodeSyncRequest(&req), nil)
	}
}

// FuzzHubStateLoad feeds New arbitrary sidecar bytes: it must refuse
// them or restore a state that persists to a fixed point — what the hub
// writes back, a restarted hub reads and writes back unchanged.
func FuzzHubStateLoad(f *testing.F) {
	tgt := targetFor(f, "dm")
	for _, name := range []string{"golden_hubstate.json", "hubstate_pr12.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":2,"cover":"xQEA","workers":[{"id":"w1","lease_state":"active","crash_counts":{"t":1}},{"id":"w1"}],"crashes":[{"title":"t","repro":"r","workers":["w9","w9"]}]}`))
	f.Add([]byte(`{"version":3,"crashes":[{"title":"t","repro":"r2","count":1,"reports":1,"workers":["w2"]},{"title":"t","repro":"r1","count":2,"workers":["w1","w2"]}]}`))
	// A cover past the kernel's block space must be refused, not grown
	// into a 512 MB bitmap.
	f.Add(fmt.Appendf(nil, `{"version":3,"cover":%q}`, base64.StdEncoding.EncodeToString(topBlockDelta())))
	f.Fuzz(func(t *testing.T, sidecar []byte) {
		h, path, err := restoreFrom(t, tgt, sidecar)
		if err != nil {
			return
		}
		persist := func(h *Hub) []byte {
			h.mu.Lock()
			h.persistLocked()
			h.mu.Unlock()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		first := persist(h)
		h2, _, err := restoreFrom(t, tgt, first)
		if err != nil {
			t.Fatalf("hub cannot restore what it persisted: %v\n%s", err, first)
		}
		path = h2.statePath
		if second := persist(h2); !bytes.Equal(first, second) {
			t.Fatalf("persist after load is not a fixed point:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
