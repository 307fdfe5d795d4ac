package hub

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// Client is the campaign-embedded hub connection; it implements
// fuzz.HubSync. Each Sync diffs the campaign snapshot against what
// the hub has already seen — seeds are pushed once (deduplicated by
// their text), coverage as new-block deltas, crashes as count deltas — and
// imports the merged corpus diff the hub returns. Transient transport
// and server errors are retried with doubling backoff. The lease the
// client holds stays good however long it goes without a sync; a hub
// restarted without its state answers 404, which is survived by
// transparent re-registration, a full cover/crash replay and a
// generation reset.
//
// Client is safe for concurrent use; syncs serialize on an internal
// mutex (parallel campaign units share one connection).
type Client struct {
	baseURL     string
	target      *prog.Target
	hc          *http.Client
	attempts    int
	backoff     time.Duration
	name        string
	fingerprint string

	mu       sync.Mutex
	workerID string            // guarded by mu
	leaseID  string            // guarded by mu
	gen      int               // guarded by mu
	pushed   map[string]bool   // guarded by mu
	lastCov  *vkernel.CoverSet // guarded by mu
	crashes  map[string]int    // guarded by mu

	// HubFingerprint is the hub target's fingerprint as reported at
	// registration (read-only after Dial).
	HubFingerprint string
	// HubSeeds is the hub corpus size at registration.
	HubSeeds int
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the transport (tests, custom timeouts).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithRetry sets the per-request try count and initial backoff
// (doubling between tries; context cancellation interrupts the
// sleep). attempts < 1 means one try.
func WithRetry(attempts int, backoff time.Duration) ClientOption {
	return func(c *Client) { c.attempts = attempts; c.backoff = backoff }
}

// Dial registers a worker with the hub at baseURL and returns the
// connected client. The worker's fingerprint is derived from its
// compiled target; name labels it in the hub's stats.
func Dial(ctx context.Context, baseURL, name string, t *prog.Target, opts ...ClientOption) (*Client, error) {
	c := &Client{
		baseURL:     baseURL,
		target:      t,
		hc:          &http.Client{Timeout: 30 * time.Second},
		attempts:    3,
		backoff:     100 * time.Millisecond,
		name:        name,
		fingerprint: Fingerprint(t),
		pushed:      map[string]bool{},
		lastCov:     &vkernel.CoverSet{},
		crashes:     map[string]int{},
	}
	for _, o := range opts {
		o(c)
	}
	resp, err := c.register(ctx)
	if err != nil {
		return nil, err
	}
	c.HubFingerprint = resp.HubFingerprint
	c.HubSeeds = resp.Seeds
	return c, nil
}

// register performs the /v1/register exchange and adopts the granted
// identity and lease. It deliberately does not touch the exported
// HubFingerprint/HubSeeds fields: those are documented read-only after
// Dial, and register also runs during transparent re-registration
// inside Sync, where rewriting them would race with concurrent
// readers.
//
//syzlint:locked mu
func (c *Client) register(ctx context.Context) (RegisterResponse, error) {
	var resp RegisterResponse
	err := c.post(ctx, "/v1/register", RegisterRequest{
		Version: ProtoVersion, Name: c.name, Fingerprint: c.fingerprint,
	}, &resp)
	if err != nil {
		return RegisterResponse{}, fmt.Errorf("hub register: %w", err)
	}
	c.workerID = resp.WorkerID
	c.leaseID = resp.LeaseID
	return resp, nil
}

// WorkerID returns the hub-assigned identity (it can change after a
// transparent re-registration).
func (c *Client) WorkerID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workerID
}

// Sync implements fuzz.HubSync: one push/pull exchange at a campaign
// checkpoint boundary.
func (c *Client) Sync(ctx context.Context, st fuzz.SyncState) ([]seedpool.SeedState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	req := SyncRequest{
		WorkerID: c.workerID,
		LeaseID:  c.leaseID,
		SinceGen: c.gen,
		Final:    st.Final,
		Stats: WorkerStats{
			Execs: st.Execs, Cover: st.Cover.Count(), Crashes: len(st.Crashes),
			Ops: ranOps(st.Ops),
		},
	}
	// Corpus delta: seeds whose text the hub has not seen from us
	// (either direction), capped per batch.
	for _, s := range st.Seeds {
		if len(req.Seeds) >= MaxPushBatch {
			break // remainder ships at the next boundary
		}
		if !c.pushed[s.Text] {
			req.Seeds = append(req.Seeds, s)
		}
	}
	// Coverage delta: blocks covered since the previous successful
	// sync. Crashes: new titles, or titles whose hit count grew, with
	// cumulative counts (the hub differences per worker, so a retry
	// that repeats a committed report adds nothing).
	deltas := func() {
		req.CoverDelta, req.Crashes = nil, nil
		if st.Cover.Diff(c.lastCov) > 0 {
			req.CoverDelta = st.Cover.EncodeDelta(c.lastCov)
		}
		for _, cr := range st.Crashes {
			if cr.Count > c.crashes[cr.Title] {
				req.Crashes = append(req.Crashes, cr)
			}
		}
	}
	deltas()

	resp, err := c.postSync(ctx, &req)
	if err != nil {
		if !isUnknownWorker(err) {
			return nil, err
		}
		// The hub holds no state for us (it restarted without its
		// state sidecar): re-register. The content-addressed push
		// dedup stays valid — the hub reloaded its corpus from the
		// store — but union coverage and the crash table restarted
		// empty, so those deltas replay from zero: rebuild the request
		// with the full cumulative state.
		if _, err := c.register(ctx); err != nil {
			return nil, err
		}
		req.WorkerID = c.workerID
		req.LeaseID = c.leaseID
		c.lastCov = &vkernel.CoverSet{}
		c.crashes = map[string]int{}
		req.SinceGen = 0
		deltas()
		if resp, err = c.postSync(ctx, &req); err != nil {
			return nil, err
		}
	}

	// The exchange succeeded: commit the local dedup state.
	for _, s := range req.Seeds {
		c.pushed[s.Text] = true
	}
	c.lastCov = st.Cover.Clone()
	for _, cr := range st.Crashes {
		if cr.Count > c.crashes[cr.Title] {
			c.crashes[cr.Title] = cr.Count
		}
	}
	if resp.Generation < req.SinceGen {
		c.gen = 0 // hub generation went backwards (restart): re-pull
	} else {
		c.gen = resp.Generation
	}
	// Import the pulled diff: attach a tree parsed against our own
	// (possibly narrower) target, skip what does not parse, and remember
	// the hub already holds these — under the text our own target
	// renders them to, the one an export will carry — so we never push
	// them back.
	out := resp.Seeds[:0]
	for _, s := range resp.Seeds {
		p, err := prog.Deserialize(c.target, s.Text)
		if err != nil {
			continue
		}
		s.Prog, s.Text = p, p.Serialize()
		c.pushed[s.Text] = true
		out = append(out, s)
	}
	return out, nil
}

// statusError is a non-2xx HTTP reply. retryAfter carries the
// server's Retry-After hint on 429 responses.
type statusError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *statusError) Error() string {
	return fmt.Sprintf("hub: HTTP %d: %s", e.code, e.msg)
}

func isUnknownWorker(err error) bool {
	se, ok := err.(*statusError)
	return ok && se.code == http.StatusNotFound
}

// retryable reports whether a request should be retried: transport
// errors, server-side (5xx) failures, and backpressure (429) are;
// other client-side (4xx) rejections are not.
func retryable(err error) bool {
	if se, ok := err.(*statusError); ok {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	return true
}

// readError turns a non-2xx reply into a statusError, capturing the
// Retry-After hint.
func readError(resp *http.Response) error {
	var er ErrorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	se := &statusError{code: resp.StatusCode, msg: er.Error}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			se.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// roundTrip POSTs body as contentType and returns the 200 reply's body
// and Content-Type, retrying with backoff (the retry discipline
// mirrors the llm middleware: doubling sleeps, context cancellation is
// never retried and interrupts the backoff). A 429's Retry-After
// overrides the backoff for that sleep — the hub said when it wants us
// back.
func (c *Client) roundTrip(ctx context.Context, path, contentType string, body []byte, limit int64) (data []byte, replyType string, err error) {
	delay := c.backoff
	attempts := c.attempts
	if attempts < 1 {
		attempts = 1
	}
	for try := 0; try < attempts; try++ {
		if try > 0 {
			wait := delay
			if se, ok := err.(*statusError); ok && se.retryAfter > 0 {
				wait = se.retryAfter
			}
			if wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					t.Stop()
					return nil, "", ctx.Err()
				case <-t.C:
				}
			}
			delay *= 2
		}
		data, replyType, err = c.send(ctx, path, contentType, body, limit)
		if err != nil && ctx.Err() != nil {
			return nil, "", ctx.Err() // whatever the try saw, the caller gave up
		}
		if err == nil || !retryable(err) {
			break
		}
	}
	return data, replyType, err
}

// send is one attempt of roundTrip. The reply body is read up to limit
// bytes; any status but 200 becomes a statusError (error replies are
// always JSON).
func (c *Client) send(ctx context.Context, path, contentType string, body []byte, limit int64) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", readError(resp)
	}
	data, err := readLimited(io.LimitReader(resp.Body, limit+1), resp.ContentLength, limit)
	if err != nil {
		return nil, "", err
	}
	if int64(len(data)) > limit {
		return nil, "", fmt.Errorf("hub: %s reply exceeds %d bytes", path, limit)
	}
	return data, resp.Header.Get("Content-Type"), nil
}

// post performs one JSON exchange with a control endpoint, with
// retry/backoff.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	data, _, err := c.roundTrip(ctx, path, JSONContentType, body, maxControlBody)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// postSync performs one /v1/sync exchange as binary frame streams,
// with retry/backoff. A 200 reply in any other encoding is an error:
// decoding it as something else would import nothing and report
// success.
func (c *Client) postSync(ctx context.Context, sreq *SyncRequest) (*SyncResponse, error) {
	data, replyType, err := c.roundTrip(ctx, "/v1/sync", BinaryContentType, EncodeSyncRequest(sreq), maxSyncBody)
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(replyType, BinaryContentType) {
		return nil, fmt.Errorf("hub: /v1/sync replied with Content-Type %q, want %s", replyType, BinaryContentType)
	}
	return DecodeSyncResponse(data)
}
