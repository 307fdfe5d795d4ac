package hub

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// flakyHub wraps a real hub handler, failing the first n requests
// with HTTP 503. It counts the requests and closes first once its
// reply to the first one is written.
func flakyHub(t *testing.T, failFirst int32) (srv *httptest.Server, calls *atomic.Int32, first <-chan struct{}) {
	t.Helper()
	tgt := targetFor(t, "dm")
	_, inner := newHub(t, tgt)
	calls = new(atomic.Int32)
	attempted := make(chan struct{})
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n == 1 {
			defer close(attempted)
		}
		if n <= failFirst {
			writeError(w, http.StatusServiceUnavailable, "transient")
			return
		}
		// Proxy to the real hub.
		resp, err := http.Post(inner.URL+r.URL.Path, "application/json", r.Body)
		if err != nil {
			writeError(w, http.StatusBadGateway, "%v", err)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return srv, calls, attempted
}

func TestClientRetryRecoversTransientErrors(t *testing.T) {
	srv, calls, _ := flakyHub(t, 2)
	c, err := Dial(context.Background(), srv.URL, "w", targetFor(t, "dm"),
		WithRetry(4, time.Millisecond))
	if err != nil {
		t.Fatalf("retry should have absorbed two 503s: %v", err)
	}
	if c.WorkerID() == "" {
		t.Fatal("no worker id after successful registration")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("expected 3 tries, saw %d", got)
	}
}

func TestClientRetryGivesUpOnPersistentFailure(t *testing.T) {
	srv, calls, _ := flakyHub(t, 1000)
	_, err := Dial(context.Background(), srv.URL, "w", targetFor(t, "dm"),
		WithRetry(3, 0))
	if err == nil {
		t.Fatal("dial against a dead hub must fail")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("expected exactly 3 tries, saw %d", got)
	}
}

func TestClientBackoffHonorsCancellation(t *testing.T) {
	srv, calls, first := flakyHub(t, 1000)
	tgt := targetFor(t, "dm")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// An hour of backoff: only cancellation can end this promptly.
		_, err := Dial(ctx, srv.URL, "w", tgt, WithRetry(5, time.Hour))
		done <- err
	}()
	<-first // the first try has failed: the client is retrying or backing off
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client slept through cancellation")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("cancellation must stop further tries: saw %d calls", got)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusBadRequest, "bad protocol version")
	}))
	defer srv.Close()
	_, err := Dial(context.Background(), srv.URL, "w", targetFor(t, "dm"),
		WithRetry(5, time.Millisecond))
	if err == nil {
		t.Fatal("4xx must surface as an error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("4xx must not be retried: saw %d calls", got)
	}
}

// TestSyncFailureLeavesDeltasPending: when a sync fails, nothing is
// marked shipped — the next successful sync re-pushes everything the
// hub missed.
func TestSyncFailureLeavesDeltasPending(t *testing.T) {
	tgt := targetFor(t, "dm")
	store, err := corpusstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hub, err := New(tgt, store)
	if err != nil {
		t.Fatal(err)
	}
	handler := hub.Handler()
	broken := atomic.Bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() && r.URL.Path == "/v1/sync" {
			writeError(w, http.StatusServiceUnavailable, "down")
			return
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	ctx := context.Background()
	c, err := Dial(ctx, srv.URL, "w", tgt, WithRetry(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	g := prog.NewGen(tgt, 9)
	st := fuzz.SyncState{
		Seeds: []seedpool.SeedState{stateOf(g.Generate(3), 2)},
		Cover: vkernel.NewCoverSet(8),
	}
	st.Cover.Add(3)
	broken.Store(true)
	if _, err := c.Sync(ctx, st); err == nil {
		t.Fatal("sync against a dead hub must fail")
	}
	broken.Store(false)
	if _, err := c.Sync(ctx, st); err != nil {
		t.Fatal(err)
	}
	hs := hub.Stats()
	if hs.Seeds != 1 || hs.UnionCover != 1 {
		t.Fatalf("retry after failure lost deltas: %+v", hs)
	}
}

// TestReRegistrationPreservesDialSnapshot pins the contract that the
// exported HubFingerprint/HubSeeds fields are read-only after Dial:
// the transparent re-registration inside Sync must not rewrite them
// from the second register response, both because the documented
// semantics are "as reported at registration [time of Dial]" and
// because rewriting would race with concurrent readers (run under
// -race, the concurrent reads below catch a regression).
func TestReRegistrationPreservesDialSnapshot(t *testing.T) {
	var registers, syncs atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", func(w http.ResponseWriter, r *http.Request) {
		n := registers.Add(1)
		resp := RegisterResponse{
			WorkerID: "w1", LeaseID: "L1",
			LeaseTTLMs: 60_000, HubFingerprint: "fp-dial", Seeds: 7,
		}
		if n > 1 { // the hub "restarted" with different state
			resp.WorkerID, resp.LeaseID = "w2", "L2"
			resp.HubFingerprint, resp.Seeds = "fp-restart", 99
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/v1/sync", func(w http.ResponseWriter, r *http.Request) {
		if syncs.Add(1) == 1 {
			writeError(w, http.StatusNotFound, "unknown worker")
			return
		}
		writeSyncResponse(w, SyncResponse{Generation: 1, LeaseTTLMs: 60_000})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx := context.Background()
	c, err := Dial(ctx, srv.URL, "w", targetFor(t, "dm"))
	if err != nil {
		t.Fatal(err)
	}
	if c.HubFingerprint != "fp-dial" || c.HubSeeds != 7 {
		t.Fatalf("dial snapshot = %q/%d, want fp-dial/7", c.HubFingerprint, c.HubSeeds)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			_ = c.HubFingerprint
			_ = c.HubSeeds
		}
	}()
	if _, err := c.Sync(ctx, fuzz.SyncState{Cover: &vkernel.CoverSet{}}); err != nil {
		t.Fatal(err)
	}
	<-done

	if c.WorkerID() != "w2" {
		t.Fatalf("client did not re-register: worker id %q", c.WorkerID())
	}
	if c.HubFingerprint != "fp-dial" || c.HubSeeds != 7 {
		t.Fatalf("re-registration rewrote the Dial snapshot: %q/%d", c.HubFingerprint, c.HubSeeds)
	}
}
