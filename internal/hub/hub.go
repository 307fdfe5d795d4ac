package hub

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/telemetry"
	"kernelgpt/internal/vkernel"
)

// leaseTTL is how long after its grant or last sync a worker's lease
// reads as expired in /v1/stats. Campaigns sync at checkpoint cadence
// (well under a minute), so a worker that goes this long without one
// is probably gone; the label refuses nothing — a sync presenting the
// lease is served whenever it comes.
const leaseTTL = time.Minute

// Lease labels (WorkerJSON.Lease).
const (
	LeaseActive   = "active"
	LeaseExpired  = "expired"
	LeaseReleased = "released"
)

// Hub is the coordination daemon's state: the authoritative merged
// corpus (saved to an on-disk corpusstore by every mutating sync), the
// global crash-dedup table, per-worker bookkeeping, and the union
// coverage map. The hub is its store's one writer, so the store
// handle's image (corpusstore.Store.Image) is the corpus index: the
// generation and every pull diff are read from it, and the hub keeps
// no copy of the manifest or of any program text. All request handling
// serializes on one mutex — the hub's unit of work is a batch exchange
// at checkpoint cadence, not a hot path — and every state change is one
// apply under it.
type Hub struct {
	target *prog.Target
	store  *corpusstore.Store
	cap    int
	logf   func(format string, args ...any)
	now    telemetry.Clock

	maxInflight     int
	minSyncInterval time.Duration
	statePath       string
	parentURL       string

	// registry/metrics serve and feed /metrics (nil = telemetry off);
	// flight buffers recent request activity and dumps it when a
	// request fails.
	registry *telemetry.Registry
	metrics  *hubMetrics
	flight   *telemetry.FlightRecorder

	// inflight counts /v1/sync requests currently being served; when
	// it would exceed maxInflight the hub sheds load with 429 before
	// touching the mutex.
	inflight atomic.Int64

	mu sync.Mutex
	// states is the merged corpus, as text only — what the last Save (or
	// the initial Load) handed the store, kept because the next Merge
	// and a leaf's upward push need them. store is guarded by mu too.
	states []seedpool.SeedState // guarded by mu
	cover  *vkernel.CoverSet    // guarded by mu
	// coverEnc is cover's encoding as the sidecar stores it; nil once a
	// sync added blocks, until persistLocked encodes it again.
	coverEnc []byte // guarded by mu
	// crashes is the crash table, keyed by title.
	crashes map[string]*crashStateJSON // guarded by mu
	// workers is the worker table, keyed by id; a record is what the
	// sidecar stores.
	workers map[string]*workerStateJSON // guarded by mu

	nextWorker    int // guarded by mu
	nextLease     int // guarded by mu
	rejectedSeeds int // guarded by mu
	start         time.Time
}

// observeSync folds one exchange's measured service time and wire
// payload size into its worker's sync aggregate (count/sum/max), the
// operator-facing cost of keeping that worker attached, and into the
// sync metrics.
//
//syzlint:locked mu
func (h *Hub) observeSync(id string, serviceNs, payloadBytes int64) {
	a := &h.workers[id].Sync
	a.Count++
	a.ServiceNsSum += serviceNs
	a.ServiceNsMax = max(a.ServiceNsMax, serviceNs)
	a.BytesSum += payloadBytes
	a.BytesMax = max(a.BytesMax, payloadBytes)
	h.metrics.syncObserved(serviceNs, payloadBytes)
}

// Option configures a Hub.
type Option func(*Hub)

// WithCapacity bounds the merged corpus (<= 0 selects
// seedpool.DefaultCapacity).
func WithCapacity(n int) Option { return func(h *Hub) { h.cap = n } }

// WithLog directs hub event logging (registrations, syncs, saves).
func WithLog(logf func(format string, args ...any)) Option {
	return func(h *Hub) { h.logf = logf }
}

// WithMaxInflight bounds concurrent /v1/sync requests; excess load is
// shed with 429 + Retry-After before it queues on the hub mutex
// (0 = unbounded).
func WithMaxInflight(n int) Option { return func(h *Hub) { h.maxInflight = n } }

// WithMinSyncInterval rate-limits each worker to one non-final sync
// per interval; faster arrivals get 429 + Retry-After (0 = no limit).
func WithMinSyncInterval(d time.Duration) Option {
	return func(h *Hub) { h.minSyncInterval = d }
}

// WithStatePath moves the hub state sidecar (see New) from its default
// place beside the store to path ("" keeps the default).
func WithStatePath(path string) Option { return func(h *Hub) { h.statePath = path } }

// WithParent records the upstream hub URL this hub aggregates into
// (for /v1/stats; the actual upward sync loop is driven by the
// caller via SyncParent).
func WithParent(url string) Option { return func(h *Hub) { h.parentURL = url } }

// WithClock injects the hub's time source — the same
// telemetry.Clock the campaigns thread through fuzz.Config.Clock, so
// worker traces and hub-side aggregates (SyncAggJSON service times,
// lease labels) are measured against one clock. Nil reads the
// system wall clock.
func WithClock(c telemetry.Clock) Option {
	return func(h *Hub) {
		if c != nil {
			h.now = c
		}
	}
}

// WithMetrics attaches a telemetry registry: hub metrics (sync
// service time, payload bytes, lease events, backpressure
// sheds, HTTP request counts) are recorded into it and Handler serves
// it at /metrics next to /v1/stats. Scrapes of /metrics itself are
// not counted, so identical hub state always scrapes to identical
// bytes.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(h *Hub) {
		h.registry = reg
		h.metrics = newHubMetrics(reg)
	}
}

// WithFlightRecorder buffers recent request activity in rec and dumps
// the ring when a request fails (status >= 400, except 429
// backpressure sheds, which are expected under load).
func WithFlightRecorder(rec *telemetry.FlightRecorder) Option {
	return func(h *Hub) { h.flight = rec }
}

// New opens a hub over the given compiled target and corpus store.
// An existing store warm-starts the hub: its entries become the
// initial merged corpus (invalid ones are skipped, as in any load)
// and its generation lineage continues, so workers of a previous hub
// instance can keep syncing. The rest of the hub's state — union
// coverage, the crash table and the worker leases — is persisted to a
// JSON sidecar, <store.Dir()>/hubstate.json unless WithStatePath names
// another file, whenever it changes, and restored here: restarted
// workers carry on as if nothing happened.
func New(t *prog.Target, store *corpusstore.Store, opts ...Option) (*Hub, error) {
	h := &Hub{
		target:  t,
		store:   store,
		logf:    func(string, ...any) {},
		now:     telemetry.SystemClock,
		cover:   &vkernel.CoverSet{},
		crashes: map[string]*crashStateJSON{},
		workers: map[string]*workerStateJSON{},
	}
	for _, o := range opts {
		o(h)
	}
	if h.cap <= 0 {
		h.cap = seedpool.DefaultCapacity
	}
	if h.statePath == "" {
		h.statePath = filepath.Join(store.Dir(), stateFile)
	}
	h.start = h.now()
	states, rep, err := store.Load(t)
	if err != nil {
		return nil, fmt.Errorf("hub: %w", err)
	}
	h.states = textOnly(states)
	if len(rep.Skipped) > 0 {
		h.logf("hub: store load skipped %d entries", len(rep.Skipped))
	}
	if err := h.loadState(); err != nil {
		return nil, err
	}
	return h, nil
}

// genLocked is the store generation. Callers hold h.mu.
func (h *Hub) genLocked() int { return h.store.Image().Generation }

// Handler returns the hub's HTTP interface. With WithMetrics set the
// registry is served at /metrics, and every API request is recorded
// (count by code/path, service-time histogram); with a flight
// recorder attached, failed requests dump the recent-activity ring.
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", h.handleRegister)
	mux.HandleFunc("/v1/sync", h.handleSync)
	mux.HandleFunc("/v1/stats", h.handleStats)
	mux.HandleFunc("/v1/crashes", h.handleCrashes)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	outer := http.NewServeMux()
	// /metrics bypasses instrumentation: a scrape must not change what
	// the next scrape reads (the double-scrape golden invariant).
	if h.registry != nil {
		outer.Handle("/metrics", telemetry.Handler(h.registry))
	}
	outer.Handle("/", h.instrument(mux))
	return outer
}

// instrument wraps the API mux in one interception point: request
// count + service time into metrics, a request event into the flight
// ring, and a ring dump when the request failed (status >= 400,
// except 429 — backpressure sheds are normal operation, and dumping
// per shed would thrash the recorder exactly when the hub is busiest).
func (h *Hub) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := h.now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		durNs := h.now().Sub(t0).Nanoseconds()
		h.metrics.request(r.URL.Path, sw.status, durNs)
		if h.flight != nil {
			h.flight.Record(telemetry.Event{
				Span: "http", ElapsedNs: t0.UnixNano(), DurNs: durNs,
				Detail: fmt.Sprintf("%s %s -> %d", r.Method, r.URL.Path, sw.status),
			})
			if sw.status >= 400 && sw.status != http.StatusTooManyRequests {
				h.flight.Dump(fmt.Sprintf("http-%d", sw.status))
			}
		}
	})
}

// writeJSON serializes one response body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", JSONContentType)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// Request body caps. A request is admitted (and a sync counted in
// flight) before its body is read, so an unbounded read would let one
// POST buffer arbitrary memory. Control requests carry a few short
// strings; wire.go bounds one frame (maxFramePayload), this the stream.
const (
	maxControlBody = 1 << 20
	maxSyncBody    = 4 * maxFramePayload
)

// readBody reads a POST body of at most limit bytes, writing the error
// response itself on failure: 405 for another method, 413 for a body
// over the limit, 400 for a broken read.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return nil, false
	}
	data, err := readLimited(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad request body: %v", err)
		return nil, false
	}
	return data, true
}

// readLimited reads a body of declared length n (-1: unknown) from a
// reader that fails past limit. A declared length within the limit is
// read into one buffer of exactly that size; any other body is read
// whole and fails at the limit.
func readLimited(body io.Reader, n, limit int64) ([]byte, error) {
	if n < 0 || n > limit {
		return io.ReadAll(body)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// writeStatus writes a refusal or failure from apply (a *statusError)
// as its JSON error reply, with its Retry-After hint in whole seconds.
func writeStatus(w http.ResponseWriter, err error) {
	se := err.(*statusError)
	if se.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(se.retryAfter/time.Second)))
	}
	writeError(w, se.code, "%s", se.msg)
}

func (h *Hub) handleRegister(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r, maxControlBody)
	if !ok {
		return
	}
	var req RegisterRequest
	if err := json.Unmarshal(data, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	reply, err := h.apply(h.now(), &req)
	if err != nil {
		writeStatus(w, err)
		return
	}
	h.persistLocked()
	writeJSON(w, http.StatusOK, reply)
}

// decodeSync reads and parses a /v1/sync body. The binary frame
// stream is the endpoint's only encoding: any other Content-Type is
// refused with 415 before the body is read. It returns the request and
// its wire payload size, writing the error response itself on failure.
func decodeSync(w http.ResponseWriter, r *http.Request) (*SyncRequest, int64, bool) {
	if r.Method == http.MethodPost && !strings.HasPrefix(r.Header.Get("Content-Type"), BinaryContentType) {
		writeError(w, http.StatusUnsupportedMediaType, "/v1/sync requires Content-Type %s", BinaryContentType)
		return nil, 0, false
	}
	data, ok := readBody(w, r, maxSyncBody)
	if !ok {
		return nil, 0, false
	}
	req, err := DecodeSyncRequest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, 0, false
	}
	return req, int64(len(data)), true
}

func (h *Hub) handleSync(w http.ResponseWriter, r *http.Request) {
	// Backpressure: shed load before the body is read or the request
	// queues on the hub mutex. The client's retry loop honors
	// Retry-After.
	if h.maxInflight > 0 {
		if n := h.inflight.Add(1); n > int64(h.maxInflight) {
			h.inflight.Add(-1)
			h.metrics.shed("inflight")
			writeStatus(w, &statusError{code: http.StatusTooManyRequests,
				msg: fmt.Sprintf("hub at capacity (%d syncs in flight)", h.maxInflight), retryAfter: time.Second})
			return
		}
		defer h.inflight.Add(-1)
	}
	req, payload, ok := decodeSync(w, r)
	if !ok {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Service time is measured from lock acquisition: the hub's own
	// work (validate, merge, save, diff, encode), excluding queueing
	// behind other syncs — the queueing delay is what capacity planning
	// derives FROM this number, so baking it in would double-count —
	// and the sidecar write that records it.
	now := h.now()
	reply, err := h.apply(now, req)
	var body []byte
	if err == nil {
		body = EncodeSyncResponse(reply.(*SyncResponse))
	}
	// A served sync, and one whose store save failed after it had
	// counted its rejected seeds, are folded and persisted.
	if se, _ := err.(*statusError); se == nil || se.code >= http.StatusInternalServerError {
		h.observeSync(req.WorkerID, h.now().Sub(now).Nanoseconds(), payload)
		h.persistLocked()
	}
	if err != nil {
		writeStatus(w, err)
		return
	}
	// A declared length lets the client read the reply into one buffer
	// of its size.
	w.Header().Set("Content-Type", BinaryContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// textOnly drops the states' programs: the hub keeps its corpus as text.
func textOnly(states []seedpool.SeedState) []seedpool.SeedState {
	for i := range states {
		states[i].Prog = nil
	}
	return states
}

// mergeLocked folds incoming seeds into the authoritative corpus and
// persists it. Memory is committed only after the store accepts the
// corpus — the store installs its new image on the same condition — so
// a failed save leaves stats, pull diffs, and disk agreeing (the
// sender retries the whole exchange). Callers hold h.mu.
func (h *Hub) mergeLocked(incoming []seedpool.SeedState) error {
	merged := corpusstore.Merge(h.cap, h.states, incoming)
	if err := h.store.Save(merged, h.cover.Count()); err != nil {
		return fmt.Errorf("store save: %w", err)
	}
	h.states = merged
	return nil
}

// apply is the hub's one state change: it applies one event at time
// now and returns the event's reply, unencoded. The events are the
// values the hub decodes: a *RegisterRequest (reply *RegisterResponse),
// a *SyncRequest (reply *SyncResponse) and a parent import, the pulled
// []seedpool.SeedState (reply nil, error the store's). now is the
// caller's one clock reading, taken when it acquired h.mu; apply and
// everything it calls read no clock and write no reply, so the same
// events at the same times leave the same state. A register or sync
// that fails returns a *statusError with the HTTP status and
// Retry-After: a refusal (4xx) has changed nothing, a failed store save
// (500) has counted the sync's rejected seeds.
//
//syzlint:locked mu
func (h *Hub) apply(now time.Time, ev any) (any, error) {
	switch ev := ev.(type) {
	case *RegisterRequest:
		if ev.Version != ProtoVersion {
			return nil, &statusError{code: 400, msg: fmt.Sprintf("protocol version %d not supported (hub speaks %d)", ev.Version, ProtoVersion)}
		}
		// A lease ID is unique per hub lifetime (counter) and across
		// restarts (start-time suffix), so a stale client's lease cannot
		// collide with one a restarted hub issued.
		h.nextWorker++
		h.nextLease++
		wk := &workerStateJSON{
			ID: fmt.Sprintf("w%d", h.nextWorker), Name: ev.Name, Fingerprint: ev.Fingerprint,
			LeaseID:         fmt.Sprintf("L%d.%x", h.nextLease, h.start.UnixNano()),
			LeaseDeadlineNs: now.Add(leaseTTL).UnixNano(),
		}
		h.workers[wk.ID] = wk
		h.metrics.lease("grant")
		h.logf("hub: registered %s (%s, fingerprint %s, lease %s)", wk.ID, ev.Name, ev.Fingerprint, wk.LeaseID)
		return &RegisterResponse{
			Version: ProtoVersion, WorkerID: wk.ID, Generation: h.genLocked(),
			Seeds: len(h.states), HubFingerprint: Fingerprint(h.target),
			LeaseID: wk.LeaseID, LeaseTTLMs: leaseTTL.Milliseconds(),
		}, nil
	case []seedpool.SeedState:
		if err := h.mergeLocked(textOnly(ev)); err != nil {
			return nil, err
		}
		h.logf("hub: parent sync imported %d seeds -> %d seeds at gen %d", len(ev), len(h.states), h.genLocked())
		return nil, nil
	}
	req := ev.(*SyncRequest)
	// The presented lease must be the worker's own: worker ids are
	// guessable (w1, w2, …), the lease is what keeps one worker from
	// pushing into, renewing or releasing another's. A lease past its
	// deadline is still the worker's own.
	wk := h.workers[req.WorkerID]
	switch {
	case wk == nil:
		return nil, &statusError{code: 404, msg: fmt.Sprintf("unknown worker %q (hub restarted? re-register)", req.WorkerID)}
	case req.LeaseID != wk.LeaseID:
		return nil, &statusError{code: 404, msg: fmt.Sprintf("missing or stale lease for %q: re-register", req.WorkerID)}
	}
	// Per-worker rate limit. Final syncs are exempt — a campaign must
	// always be able to deliver its last exchange and release its
	// lease.
	if h.minSyncInterval > 0 && !req.Final && wk.LastSyncNs != 0 {
		if wait := h.minSyncInterval - now.Sub(time.Unix(0, wk.LastSyncNs)); wait > 0 {
			h.metrics.shed("rate")
			return nil, &statusError{code: 429, msg: fmt.Sprintf("sync rate limit for %q: retry in %v", wk.ID, wait),
				retryAfter: wait.Truncate(time.Second) + time.Second}
		}
	}
	// Push: validate incoming programs against the hub target (a seed's
	// identity is the hub's own rendering of it, never the text as sent),
	// merge into the authoritative corpus, persist. The decoded seeds
	// are text only already, so they are filtered in place.
	incoming := req.Seeds[:0]
	for _, st := range req.Seeds {
		text, err := prog.Canonical(h.target, st.Text)
		if err != nil || st.Prio <= 0 {
			continue
		}
		st.Text = text
		incoming = append(incoming, st)
	}
	rejected := len(req.Seeds) - len(incoming)
	h.rejectedSeeds += rejected
	if len(incoming) > 0 {
		if err := h.mergeLocked(incoming); err != nil {
			return nil, &statusError{code: 500, msg: err.Error()}
		}
	}
	newBlocks := 0
	if len(req.CoverDelta) > 0 {
		newBlocks, _ = h.cover.ApplyDelta(req.CoverDelta) // validated by DecodeSyncRequest
		if newBlocks > 0 {
			h.coverEnc = nil
		}
	}
	for _, cr := range req.Crashes {
		h.recordCrash(wk, cr)
	}
	// Concurrent unit completions can deliver snapshots out of order
	// (they post outside the campaign's merge lock); keep the stats
	// monotone by ignoring a snapshot older than the recorded one.
	if req.Stats.Execs >= wk.Stats.Execs {
		wk.Stats = req.Stats
	}
	wk.LastSyncNs = now.UnixNano()
	// Lease lifecycle: a Final sync releases the lease (the campaign
	// is done — the CI fleet check asserts zero active leases at
	// exit); any other successful sync renews it.
	if req.Final {
		h.metrics.lease("release")
	} else if !wk.Final {
		wk.LeaseDeadlineNs = now.Add(leaseTTL).UnixNano()
		h.metrics.lease("renew")
	}
	wk.Final = wk.Final || req.Final
	seeds, gen := h.diff(req.SinceGen)
	h.logf("hub: sync %s: +%d seeds (%d rejected), +%d blocks, %d crash reports -> %d seeds at gen %d",
		req.WorkerID, len(incoming), rejected, newBlocks, len(req.Crashes), len(seeds), gen)
	return &SyncResponse{
		Generation: gen, Seeds: seeds, RejectedSeeds: rejected, LeaseTTLMs: leaseTTL.Milliseconds(),
	}, nil
}

// diff collects the corpus entries admitted after generation since,
// batched in whole generations up to MaxPullBatch seeds, and returns
// the generation the batch reaches (the client's next SinceGen).
// Callers hold h.mu.
//
//syzlint:locked mu
func (h *Hub) diff(since int) ([]seedpool.SeedState, int) {
	img := h.store.Image()
	var cands []corpusstore.Entry
	for _, e := range img.Seeds {
		// Same selection as corpusstore.Diff: since <= 0 means
		// everything, including Gen-0 entries from pre-generation
		// manifests (a warm start from a legacy store must still
		// serve its corpus to first-time pullers). Entries the load
		// skipped carry no text and are not served.
		if (since <= 0 || e.Gen > since) && e.Text != "" {
			cands = append(cands, e)
		}
	}
	if len(cands) == 0 {
		return nil, img.Generation
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Gen != cands[j].Gen {
			return cands[i].Gen < cands[j].Gen
		}
		return cands[i].Text < cands[j].Text
	})
	out := make([]seedpool.SeedState, 0, len(cands))
	reached := since
	for i := 0; i < len(cands); {
		g := cands[i].Gen
		j := i
		for j < len(cands) && cands[j].Gen == g {
			j++
		}
		// Take whole generations while the batch has room; always take
		// at least one so the client makes progress.
		if len(out) > 0 && len(out)+(j-i) > MaxPullBatch {
			break
		}
		for ; i < j; i++ {
			e := cands[i]
			out = append(out, seedpool.SeedState{Text: e.Text, Prio: e.Prio, Bonus: e.Bonus, Op: e.Op})
		}
		reached = g
	}
	if reached == img.Generation || len(out) == 0 {
		return out, img.Generation
	}
	return out, reached
}

// recordCrash folds one report into the global crash table, keyed by
// title: the same crash reported by different workers, under whatever
// repro each holds for it, is one record. Counts arrive cumulative per
// worker and title and are differenced against the worker's previous
// report, so a retried sync folds in exactly once, and is dropped
// before its repro is parsed. The first reporter keeps attribution and
// its repro, normalized through the hub target when it parses (raw
// otherwise); a later report of a known title parses nothing. Callers
// hold h.mu.
//
//syzlint:locked mu
func (h *Hub) recordCrash(wk *workerStateJSON, cr fuzz.CrashReport) {
	delta := cr.Count - wk.CrashCounts[cr.Title]
	if delta <= 0 {
		return // retry of a committed report, or a stale snapshot
	}
	if wk.CrashCounts == nil {
		wk.CrashCounts = map[string]int{}
	}
	wk.CrashCounts[cr.Title] = cr.Count
	rec := h.crashes[cr.Title]
	if rec == nil {
		repro, err := prog.Canonical(h.target, cr.Repro)
		if err != nil {
			repro = cr.Repro
		}
		rec = &crashStateJSON{Title: cr.Title, Repro: repro, FirstWorker: wk.ID}
		h.crashes[cr.Title] = rec
	}
	rec.Count += delta
	rec.Reports++
	rec.addWorker(wk.ID)
}

func (h *Hub) handleStats(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	writeJSON(w, http.StatusOK, h.statsLocked())
}

// statsLocked builds the monitoring document. Callers hold h.mu.
func (h *Hub) statsLocked() HubStats {
	now := h.now()
	st := HubStats{
		Version:       ProtoVersion,
		Generation:    h.genLocked(),
		Seeds:         len(h.states),
		UnionCover:    h.cover.Count(),
		Crashes:       len(h.crashes),
		RejectedSeeds: h.rejectedSeeds,
		Parent:        h.parentURL,
	}
	for _, rec := range h.crashes {
		st.CrashReports += rec.Reports
	}
	st.Execs, st.Ops = h.totalsLocked()
	for _, wk := range h.sortedWorkersLocked() {
		wj := WorkerJSON{
			ID: wk.ID, Name: wk.Name, Fingerprint: wk.Fingerprint,
			Final: wk.Final, Lease: LeaseActive, Stats: wk.Stats, Sync: wk.Sync,
		}
		if wk.LastSyncNs != 0 {
			wj.LastSyncUnix = time.Unix(0, wk.LastSyncNs).Unix()
		}
		// The lease label: released once a Final sync came, expired once
		// the deadline has passed, active otherwise.
		switch {
		case wk.Final:
			wj.Lease = LeaseReleased
			st.ReleasedLeases++
		case now.After(time.Unix(0, wk.LeaseDeadlineNs)):
			wj.Lease = LeaseExpired
			st.ExpiredLeases++
		default:
			st.ActiveLeases++
		}
		st.Workers = append(st.Workers, wj)
		// Hub-wide sync load: totals across workers, worst single
		// exchange anywhere.
		st.Sync.Count += wk.Sync.Count
		st.Sync.ServiceNsSum += wk.Sync.ServiceNsSum
		st.Sync.BytesSum += wk.Sync.BytesSum
		st.Sync.ServiceNsMax = max(st.Sync.ServiceNsMax, wk.Sync.ServiceNsMax)
		st.Sync.BytesMax = max(st.Sync.BytesMax, wk.Sync.BytesMax)
	}
	if up := now.Sub(h.start).Seconds(); up > 0 {
		st.ExecsPerSec = float64(st.Execs) / up
	}
	return st
}

// totalsLocked sums the workers' latest cumulative exec counts and
// their per-operator yields, the latter as a name-sorted slice.
// Callers hold h.mu.
func (h *Hub) totalsLocked() (execs int, ops []fuzz.OpStat) {
	sum := map[string]fuzz.OpStat{}
	for _, wk := range h.workers {
		execs += wk.Stats.Execs
		for _, op := range wk.Stats.Ops {
			o := sum[op.Name]
			sum[op.Name] = fuzz.OpStat{Name: op.Name, Picks: o.Picks + op.Picks, NewBlocks: o.NewBlocks + op.NewBlocks}
		}
	}
	for _, o := range sum {
		ops = append(ops, o)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Name < ops[j].Name })
	return execs, ops
}

func (h *Hub) handleCrashes(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	writeJSON(w, http.StatusOK, h.crashesLocked())
}

// crashesLocked renders the crash table sorted by title. Callers hold
// h.mu.
func (h *Hub) crashesLocked() []CrashJSON {
	out := make([]CrashJSON, 0, len(h.crashes))
	for _, rec := range h.sortedCrashesLocked() {
		out = append(out, CrashJSON{
			Title: rec.Title, Repro: rec.Repro, FirstWorker: rec.FirstWorker,
			Count: rec.Count, Reports: rec.Reports, Workers: len(rec.Workers),
		})
	}
	return out
}

// Stats snapshots the monitoring document (the programmatic form of
// GET /v1/stats).
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.statsLocked()
}

// Crashes snapshots the global crash table (GET /v1/crashes).
func (h *Hub) Crashes() []CrashJSON {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.crashesLocked()
}

// UnionCover clones the hub's merged coverage set.
func (h *Hub) UnionCover() *vkernel.CoverSet {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cover.Clone()
}
