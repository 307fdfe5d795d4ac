package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/hub"
	"kernelgpt/internal/vkernel"
)

// fleetSize is fleet_sync's shape: rounds fleets, each a fresh hub
// with workers campaigns of execs programs attached to it.
type fleetSize struct{ rounds, workers, execs int }

func (p params) fleetSize() fleetSize {
	if p.tiny {
		return fleetSize{rounds: 1, workers: p.procs, execs: 2000 / p.procs}
	}
	return fleetSize{rounds: p.scaled(6), workers: p.procs, execs: 25000}
}

// syncRecorder wraps a campaign's hub connection: it counts failed
// syncs (the campaign itself treats them as best-effort), keeps each
// client-observed latency, and spans the call on the worker's track.
type syncRecorder struct {
	inner fuzz.HubSync
	tk    *track

	mu     sync.Mutex
	lats   []float64 // guarded by mu; ms
	failed int       // guarded by mu
}

// snapshot returns the latencies so far and how many syncs failed.
func (s *syncRecorder) snapshot() (lats []float64, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.lats...), s.failed
}

func (s *syncRecorder) Sync(ctx context.Context, st fuzz.SyncState) ([]seedpool.SeedState, error) {
	s.tk.begin("hub.client_sync")
	t0 := time.Now()
	seeds, err := s.inner.Sync(ctx, st)
	d := time.Since(t0)
	s.tk.end()
	s.mu.Lock()
	s.lats = append(s.lats, float64(d)/1e6)
	if err != nil {
		s.failed++
	}
	s.mu.Unlock()
	return seeds, err
}

// spanHeader carries the client transport span's id to the hub side,
// so the handler span names the span that caused it.
const spanHeader = "X-Kgbench-Span"

// exchange is one captured /v1/sync round trip.
type exchange struct{ req, resp []byte }

// tracedTransport spans each HTTP round trip, body transfer included,
// and keeps the sync bodies for the codec probes.
type tracedTransport struct {
	tk    *track
	inner http.RoundTripper

	mu        sync.Mutex
	attempts  int        // guarded by mu; sync requests sent, retries included
	exchanges []exchange // guarded by mu
}

// captured returns the sync requests sent and the exchanges that
// succeeded.
func (t *tracedTransport) captured() (attempts int, exchanges []exchange) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempts, t.exchanges
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	isSync := req.URL.Path == "/v1/sync"
	var reqBody []byte
	if isSync && req.Body != nil {
		var err error
		if reqBody, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(reqBody))
	}
	if isSync {
		t.mu.Lock()
		t.attempts++
		t.mu.Unlock()
	}
	t.tk.begin("hub.transport")
	defer t.tk.end()
	req.Header.Set(spanHeader, strconv.FormatInt(t.tk.current(), 10)+","+strconv.Itoa(t.tk.round))
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if isSync && resp.StatusCode == http.StatusOK {
		t.mu.Lock()
		t.exchanges = append(t.exchanges, exchange{req: reqBody, resp: body})
		t.mu.Unlock()
	}
	return resp, nil
}

// tracedHandler spans the hub's service of each request under the
// client span named in spanHeader.
func tracedHandler(tr *tracer, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent int64
		round := 0
		if h := r.Header.Get(spanHeader); h != "" {
			fmt.Sscanf(h, "%d,%d", &parent, &round)
		}
		tk := tr.track(round, parent)
		name := "hub.handler"
		if r.URL.Path != "/v1/sync" {
			name = "hub.handler_other"
		}
		tk.begin(name)
		inner.ServeHTTP(w, r)
		dur := tk.end()
		tk.close()
		if parent != 0 {
			tr.chargeChild("hub.transport", dur)
		}
	})
}

// fleetWorker is one attached campaign's result.
type fleetWorker struct {
	st    *fuzz.Stats
	err   error
	rec   *syncRecorder
	trans *tracedTransport
}

// fleetRound is everything one fleet left behind for the checks.
type fleetRound struct {
	workers []fleetWorker
	union   *vkernel.CoverSet
	crashes []hub.CrashJSON
	stats   hub.HubStats
}

// runFleet starts one hub over a fresh store behind a real HTTP
// server, attaches the workers concurrently and waits for them.
func runFleet(ctx context.Context, e *env, p params, tr *tracer, size fleetSize, round int) (*fleetRound, error) {
	dir, err := os.MkdirTemp(p.tmp, "fleet-*")
	if err != nil {
		return nil, err
	}
	store, err := corpusstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	h, err := hub.New(e.wide, store, hub.WithCapacity(storeCap), hub.WithStatePath(filepath.Join(dir, "hubstate.json")))
	if err != nil {
		return nil, err
	}
	handler := h.Handler()
	if tr != nil {
		handler = tracedHandler(tr, handler)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	f := fuzz.New(e.wide, e.kernel)
	workers := make([]fleetWorker, size.workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &workers[i]
			tk := tr.track(round, 0)
			defer tk.close()
			var opts []hub.ClientOption
			if tr != nil {
				w.trans = &tracedTransport{tk: tk, inner: http.DefaultTransport}
				opts = append(opts, hub.WithHTTPClient(&http.Client{Transport: w.trans, Timeout: 30 * time.Second}))
			}
			cl, err := hub.Dial(ctx, srv.URL, fmt.Sprintf("worker-%d", i), e.wide, opts...)
			if err != nil {
				w.err = fmt.Errorf("dial: %w", err)
				return
			}
			w.rec = &syncRecorder{inner: cl, tk: tk}
			cfg := fuzz.DefaultConfig(size.execs, derive(p.seed, streamWorker, round*size.workers+i))
			cfg.Hub = w.rec
			tk.begin("fuzz.run_attached")
			w.st, w.err = f.RunContext(ctx, cfg)
			tk.end()
		}(i)
	}
	wg.Wait()
	return &fleetRound{
		workers: workers, union: h.UnionCover(), crashes: h.Crashes(), stats: h.Stats(),
	}, nil
}

// checkFleet verifies one fleet: every campaign and every sync
// succeeded, the hub's union cover holds every worker block, its crash
// table holds every worker title, and no lease is left active.
func checkFleet(c *checks, e *env, fr *fleetRound, budget int) {
	hubTitles := map[string]bool{}
	for _, cr := range fr.crashes {
		hubTitles[cr.Title] = true
	}
	for i, w := range fr.workers {
		what := fmt.Sprintf("worker %d", i)
		checkCampaign(c, what, e.wide, e.kernel, w.st, w.err, budget)
		if w.st == nil || w.rec == nil {
			continue
		}
		lats, failed := w.rec.snapshot()
		syncs := len(lats)
		c.ok(syncs == w.st.Syncs && syncs > 0, "%s: recorded %d syncs, campaign counted %d", what, syncs, w.st.Syncs)
		c.ok(failed == 0, "%s: %d of %d syncs failed", what, failed, syncs)
		missing := fuzz.UniqueTo(w.st.Cover, fr.union)
		c.ok(missing == 0, "%s: %d covered blocks are missing from the hub's union cover", what, missing)
		for _, t := range w.st.CrashTitles() {
			c.ok(hubTitles[t], "%s: crash %q is missing from the hub's crash table", what, t)
		}
	}
	c.ok(fr.stats.ActiveLeases == 0, "hub holds %d active leases after the final syncs", fr.stats.ActiveLeases)
}

// fold adds one fleet's results to the outcome and returns its sync
// latencies.
func (fr *fleetRound) fold(o *outcome) []float64 {
	o.covers = append(o.covers, fr.union.Count())
	for _, cr := range fr.crashes {
		o.titles[cr.Title] = true
	}
	var lats []float64
	for _, w := range fr.workers {
		if w.rec != nil {
			l, _ := w.rec.snapshot()
			lats = append(lats, l...)
		}
	}
	return lats
}

func runFleetSync(ctx context.Context, e *env, p params) (*outcome, error) {
	o := newOutcome()
	size := p.fleetSize()
	// Warm-up: one small fleet, so the HTTP stack, the store directory
	// and the heap are initialised before the first timed fleet.
	warm := size
	warm.execs = size.execs/10 + 1024
	if _, err := runFleet(ctx, e, p, nil, warm, -1); err != nil {
		return nil, err
	}
	rounds := make([]*fleetRound, size.rounds)
	for r := range rounds {
		var err error
		o.timed(p, func() int {
			rounds[r], err = runFleet(ctx, e, p, nil, size, r)
			return size.workers * size.execs
		})
		if err != nil {
			return nil, err
		}
	}
	var lats []float64
	for _, fr := range rounds {
		checkFleet(&o.checks, e, fr, size.execs)
		lats = append(lats, fr.fold(o)...)
	}
	pct, tailMs := tail(lats, 95)
	o.note("%d fleets x %d workers x %d execs; %d syncs: client-observed p50 %.3f ms, p%g %.3f ms",
		size.rounds, size.workers, size.execs, len(lats), median(lats), pct, tailMs)
	return o, nil
}

func traceFleetSync(ctx context.Context, e *env, p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	size := p.fleetSize()
	var lats []float64
	var exchanges []exchange
	attempts := 0
	var syncTime, elapsed time.Duration
	var covers []*vkernel.CoverSet
	for r := 0; r < size.rounds; r++ {
		fr, err := runFleet(ctx, e, p, tr, size, r)
		if err != nil {
			return nil, err
		}
		checkFleet(&o.checks, e, fr, size.execs)
		lats = append(lats, fr.fold(o)...)
		for _, w := range fr.workers {
			if w.st == nil {
				continue
			}
			syncTime += w.st.SyncTime
			elapsed += w.st.Elapsed
			covers = append(covers, w.st.Cover)
			if w.trans != nil {
				n, x := w.trans.captured()
				attempts += n
				exchanges = append(exchanges, x...)
			}
		}
	}
	l := o.layer
	syncs := float64(len(lats))
	clientSync := tr.get("hub.client_sync")
	transport := tr.get("hub.transport")
	l["hub.syncs"] = syncs
	l["hub.sync_p50_ms"] = median(lats)
	pct, tailMs := tail(lats, 95)
	l["hub.sync_p95_ms"] = tailMs
	l["hub.client_self_ms"] = clientSync.meanSelfNs() / 1e6
	l["hub.transport_ms"] = transport.meanSelfNs() / 1e6
	handlerNs := tr.durations("hub.handler")
	l["hub.handler_ms_p50"] = median(handlerNs) / 1e6
	hpct, htail := tail(handlerNs, 95)
	l["hub.handler_ms_p95"] = htail / 1e6
	l["seedpool.export_ms"] = ratio(float64(syncTime-time.Duration(clientSync.Total))/1e6, syncs)
	l["fuzz.sync_wait_frac"] = ratio(float64(syncTime), float64(elapsed))
	l["hub.retries"] = float64(attempts) - syncs
	probeSyncCodec(tr, exchanges, l)
	probeCoverDelta(tr, covers, l)
	if err := probeStore(ctx, tr, e, p, l); err != nil {
		return nil, err
	}
	o.note("%d fleets x %d workers x %d execs; %d syncs: p50 %.3f ms, p%g %.3f ms; %d hub-side sync services, p%g reported as hub.handler_ms_p95",
		size.rounds, size.workers, size.execs, len(lats), median(lats), pct, tailMs, len(handlerNs), hpct)
	return o, nil
}

// probeSyncCodec replays the captured sync bodies through the wire
// codec: sizes and seed counts from every exchange, encode and decode
// cost per request.
func probeSyncCodec(tr *tracer, exchanges []exchange, l map[string]float64) {
	tk := tr.track(-1, 0)
	var reqBytes, respBytes, pushed, pulled, withSeeds int
	for _, x := range exchanges {
		reqBytes += len(x.req)
		respBytes += len(x.resp)
		tk.begin("hub.decode_req")
		req, err := hub.DecodeSyncRequest(x.req)
		tk.end()
		if err != nil {
			continue
		}
		tk.begin("hub.encode_req")
		hub.EncodeSyncRequest(req)
		tk.end()
		n := len(req.Seeds)
		if resp, err := hub.DecodeSyncResponse(x.resp); err == nil {
			pulled += len(resp.Seeds)
			n += len(resp.Seeds)
		}
		pushed += len(req.Seeds)
		if n > 0 {
			withSeeds++
		}
	}
	tk.close()
	n := float64(len(exchanges))
	l["hub.req_bytes"] = ratio(float64(reqBytes), n)
	l["hub.resp_bytes"] = ratio(float64(respBytes), n)
	l["hub.seeds_pushed"] = float64(pushed)
	l["hub.seeds_pulled"] = float64(pulled)
	l["hub.syncs_with_seeds_frac"] = ratio(float64(withSeeds), n)
	l["hub.encode_req_ns"] = tr.get("hub.encode_req").meanNs()
	l["hub.decode_req_ns"] = tr.get("hub.decode_req").meanNs()
}

// probeCoverDelta prices the cover-delta codec on each worker's final
// cover set against an empty base.
func probeCoverDelta(tr *tracer, covers []*vkernel.CoverSet, l map[string]float64) {
	tk := tr.track(-1, 0)
	for _, c := range covers {
		tk.begin("vkernel.cover_delta_encode")
		data := c.EncodeDelta(&vkernel.CoverSet{})
		tk.end()
		dst := &vkernel.CoverSet{}
		tk.begin("vkernel.cover_delta_apply")
		dst.ApplyDelta(data) // the data was encoded just above; a decode error would show as a zero-block set
		tk.end()
	}
	tk.close()
	l["vkernel.cover_delta_encode_ns"] = tr.get("vkernel.cover_delta_encode").meanNs()
	l["vkernel.cover_delta_apply_ns"] = tr.get("vkernel.cover_delta_apply").meanNs()
}
