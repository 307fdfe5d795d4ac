package hub

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// statsBytes fetches GET /v1/stats verbatim.
func statsBytes(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
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

// postRaw POSTs a body with the given Content-Type ("" = none) and
// returns the status and the decoded JSON error message.
func postRaw(t *testing.T, url, contentType string, body io.Reader) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("POST %s: HTTP %d without a JSON error body: %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode, er.Error
}

// TestSyncRejectsNonBinary: the binary frame stream is /v1/sync's only
// encoding. A well-formed JSON SyncRequest (what a PR-5 worker sends),
// with or without a Content-Type, is refused with 415 naming the
// required media type and leaves the hub untouched; the client does not
// retry the rejection.
func TestSyncRejectsNonBinary(t *testing.T) {
	tgt := targetFor(t, "dm")
	fixed := time.Unix(1_700_000_000, 0)
	hub, srv := newHub(t, tgt, WithClock(func() time.Time { return fixed }))
	var reg RegisterResponse
	postJSON(t, srv.URL+"/v1/register", RegisterRequest{Version: ProtoVersion, Name: "w", Fingerprint: "fp"}, &reg)
	body, err := json.Marshal(SyncRequest{
		WorkerID: reg.WorkerID, LeaseID: reg.LeaseID,
		CoverDelta: coverOf(1, 2, 3).EncodeDelta(nil), Stats: WorkerStats{Execs: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := statsBytes(t, srv.URL)
	for _, contentType := range []string{JSONContentType, ""} {
		code, msg := postRaw(t, srv.URL+"/v1/sync", contentType, bytes.NewReader(body))
		if code != http.StatusUnsupportedMediaType || !strings.Contains(msg, BinaryContentType) {
			t.Errorf("Content-Type %q: HTTP %d %q, want 415 naming %s", contentType, code, msg, BinaryContentType)
		}
	}
	if after := statsBytes(t, srv.URL); !bytes.Equal(before, after) {
		t.Errorf("rejected syncs changed /v1/stats:\nbefore: %s\nafter:  %s", before, after)
	}
	if st := hub.Stats(); st.UnionCover != 0 || st.Sync.Count != 0 {
		t.Errorf("rejected syncs reached hub state: %+v", st)
	}

	// The same rejection as hub.Client sees it: a proxy relabels the
	// client's syncs as JSON, the way a worker on the removed JSON
	// protocol would have sent them.
	var syncs atomic.Int32
	handler := hub.Handler()
	relabel := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sync" {
			syncs.Add(1)
			r.Header.Set("Content-Type", JSONContentType)
		}
		handler.ServeHTTP(w, r)
	}))
	defer relabel.Close()
	ctx := context.Background()
	c, err := Dial(ctx, relabel.URL, "w2", tgt, WithRetry(5, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Sync(ctx, fuzz.SyncState{Cover: coverOf(7)})
	if se, ok := err.(*statusError); !ok || se.code != http.StatusUnsupportedMediaType {
		t.Fatalf("sync error = %v, want HTTP 415", err)
	}
	if got := syncs.Load(); got != 1 {
		t.Errorf("415 was retried: %d attempts", got)
	}
}

// TestClientRejectsNonBinaryReply: a hub that answers a sync 200 in
// JSON (a PR-5 hub) must make Client.Sync fail; decoding the reply as
// something else would import nothing and report success.
func TestClientRejectsNonBinaryReply(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/register" {
			writeJSON(w, http.StatusOK, RegisterResponse{Version: ProtoVersion, WorkerID: "w1", LeaseID: "L1"})
			return
		}
		writeJSON(w, http.StatusOK, SyncResponse{Generation: 3, Seeds: []seedpool.SeedState{{Text: "x", Prio: 1}}})
	}))
	defer srv.Close()
	ctx := context.Background()
	c, err := Dial(ctx, srv.URL, "w", targetFor(t, "dm"), WithRetry(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := c.Sync(ctx, fuzz.SyncState{Cover: coverOf(1)})
	if err == nil || !strings.Contains(err.Error(), BinaryContentType) {
		t.Fatalf("JSON 200 reply: got %d seeds, err %v; want an error naming %s", len(seeds), err, BinaryContentType)
	}
	if c.gen != 0 {
		t.Errorf("failed sync advanced the client generation to %d", c.gen)
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestOversizedBodiesRejected: request bodies are capped. One byte
// over the cap gets 413 on a control endpoint and on /v1/sync, the hub
// state is untouched, and the shed sync's in-flight slot is returned.
func TestOversizedBodiesRejected(t *testing.T) {
	tgt := targetFor(t, "dm")
	fixed := time.Unix(1_700_000_000, 0)
	hub, srv := newHub(t, tgt, WithClock(func() time.Time { return fixed }), WithMaxInflight(2))
	before := statsBytes(t, srv.URL)
	for _, tc := range []struct {
		path, contentType string
		limit             int64
	}{
		{"/v1/register", JSONContentType, maxControlBody},
		{"/v1/sync", BinaryContentType, maxSyncBody},
	} {
		code, msg := postRaw(t, srv.URL+tc.path, tc.contentType, io.LimitReader(zeros{}, tc.limit+1))
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with %d bytes: HTTP %d %q, want 413", tc.path, tc.limit+1, code, msg)
		}
	}
	if after := statsBytes(t, srv.URL); !bytes.Equal(before, after) {
		t.Errorf("oversized requests changed /v1/stats:\nbefore: %s\nafter:  %s", before, after)
	}
	if n := hub.inflight.Load(); n != 0 {
		t.Errorf("in-flight counter stuck at %d after the rejected sync", n)
	}
}

// topBlockDelta is a cover delta, canonical in every other respect,
// naming block 2³²−1: one array container at key 65535, where the
// kernel's block space ends at key 255.
func topBlockDelta() []byte {
	enc := coverOf(0xffff).EncodeDelta(nil) // magic, version, one container, key 0, ...
	return append(append(append([]byte{}, enc[:3]...), binary.AppendUvarint(nil, 0xffff)...), enc[4:]...)
}

// TestSyncRefusesCoverPastBlockSpace: a sync whose cover delta names a
// block past the kernel's block space is refused with 400 and leaves
// the hub's cover as it was, instead of growing it into a 512 MB
// bitmap that every later persist encodes under the hub mutex.
func TestSyncRefusesCoverPastBlockSpace(t *testing.T) {
	tgt := targetFor(t, "dm")
	h, srv := newHub(t, tgt)
	var reg RegisterResponse
	postJSON(t, srv.URL+"/v1/register", RegisterRequest{Version: ProtoVersion, Name: "w", Fingerprint: "fp"}, &reg)
	req := SyncRequest{WorkerID: reg.WorkerID, LeaseID: reg.LeaseID, CoverDelta: coverOf(1, 2, 3).EncodeDelta(nil)}
	if code, msg := rawSync(t, srv.URL, req); code != http.StatusOK {
		t.Fatalf("sync: HTTP %d %s", code, msg)
	}
	before := h.UnionCover().EncodeDelta(nil)
	req.CoverDelta = topBlockDelta()
	if code, msg := rawSync(t, srv.URL, req); code != http.StatusBadRequest {
		t.Fatalf("a cover delta naming block 2^32-1: HTTP %d %s, want 400", code, msg)
	}
	if after := h.UnionCover().EncodeDelta(nil); !bytes.Equal(after, before) {
		t.Fatalf("a refused cover delta changed the hub's cover: %x, was %x", after, before)
	}
}

// TestOneNewBlockReachesSidecar: a sync that adds exactly one block
// to the union cover re-encodes the sidecar's copy of it, so the block
// is in the persisted state and survives a restart.
func TestOneNewBlockReachesSidecar(t *testing.T) {
	tgt := targetFor(t, "dm")
	dir := t.TempDir()
	open := func() *Hub {
		t.Helper()
		h, err := New(tgt, openStore(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	srv := httptest.NewServer(open().Handler())
	defer srv.Close()
	var reg RegisterResponse
	postJSON(t, srv.URL+"/v1/register", RegisterRequest{Version: ProtoVersion, Name: "w", Fingerprint: "fp"}, &reg)
	req := SyncRequest{WorkerID: reg.WorkerID, LeaseID: reg.LeaseID}
	for _, cover := range [][]vkernel.BlockID{{1, 4, 9}, {1, 4, 9, 16}} {
		req.CoverDelta = coverOf(cover...).EncodeDelta(nil)
		if code, msg := rawSync(t, srv.URL, req); code != http.StatusOK {
			t.Fatalf("sync: HTTP %d %s", code, msg)
		}
	}
	if got := open().Stats().UnionCover; got != 4 {
		t.Fatalf("the restarted hub's union cover holds %d blocks, want 4: the one-block sync never reached the sidecar", got)
	}
}

// TestPullServesOversizedGeneration: a pull whose first pending
// generation holds more than MaxPullBatch seeds gets that generation
// whole — a batch takes at least one generation, or the puller could
// never get past it.
func TestPullServesOversizedGeneration(t *testing.T) {
	tgt := targetFor(t, "dm")
	h, srv := newHub(t, tgt, WithCapacity(2*MaxPullBatch))
	register := func(name string) SyncRequest {
		var reg RegisterResponse
		postJSON(t, srv.URL+"/v1/register", RegisterRequest{Version: ProtoVersion, Name: name, Fingerprint: "fp"}, &reg)
		return SyncRequest{WorkerID: reg.WorkerID, LeaseID: reg.LeaseID}
	}
	push, pull := register("pusher"), register("puller")
	g := prog.NewGen(tgt, 7)
	texts := map[string]bool{}
	for len(texts) <= MaxPullBatch {
		text := g.Generate(4).Serialize()
		if !texts[text] {
			texts[text] = true
			push.Seeds = append(push.Seeds, seedpool.SeedState{Text: text, Prio: 1 + len(texts)%7})
		}
	}
	if code, msg := rawSync(t, srv.URL, push); code != http.StatusOK {
		t.Fatalf("push: HTTP %d %s", code, msg)
	}
	resp, err := http.Post(srv.URL+"/v1/sync", BinaryContentType, bytes.NewReader(EncodeSyncRequest(&pull)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSyncResponse(data)
	if err != nil {
		t.Fatalf("pull: HTTP %d: %v", resp.StatusCode, err)
	}
	if st := h.Stats(); len(got.Seeds) != len(texts) || got.Generation != st.Generation || st.Seeds != len(texts) {
		t.Fatalf("pull from 0 got %d seeds reaching gen %d; the hub holds %d of the %d pushed at gen %d",
			len(got.Seeds), got.Generation, st.Seeds, len(texts), st.Generation)
	}
}
