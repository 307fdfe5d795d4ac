package hub

import (
	"fmt"
	"net/http"

	"kernelgpt/internal/telemetry"
)

// hubMetrics is the hub-side telemetry bundle. Fixed label sets
// (lease events, shed kinds) are pre-registered so every
// series appears in the first scrape at zero — the CI monotonicity
// checks difference scrapes and must never see a series pop into
// existence between them. Per-path request counters register lazily
// (the path set is small and closed in practice).
type hubMetrics struct {
	reg *telemetry.Registry
	// syncSvc mirrors SyncAggJSON service time as a distribution
	// (syzhub_sync_service_ns): its _sum/_count reconcile exactly with
	// /v1/stats sync.service_ns_sum/count — the same measurements,
	// two views.
	syncSvc *telemetry.Histogram
	// syncBytes counts sync request payload bytes as they arrived on the
	// wire (syzhub_sync_bytes_total); it reconciles with /v1/stats
	// sync.bytes_sum.
	syncBytes *telemetry.Counter
	// leaseEvents counts lease grants, renewals and releases
	// (syzhub_lease_events_total{event=...}).
	leaseEvents map[string]*telemetry.Counter
	// sheds counts backpressure rejections
	// (syzhub_backpressure_sheds_total{kind="inflight"|"rate"}).
	sheds map[string]*telemetry.Counter
	// reqNs is the HTTP request service-time distribution
	// (syzhub_request_ns), measured by the Handler middleware.
	reqNs *telemetry.Histogram
}

func newHubMetrics(reg *telemetry.Registry) *hubMetrics {
	if reg == nil {
		return nil
	}
	m := &hubMetrics{
		reg:         reg,
		syncSvc:     reg.Histogram("syzhub_sync_service_ns", nil),
		syncBytes:   reg.Counter("syzhub_sync_bytes_total"),
		leaseEvents: map[string]*telemetry.Counter{},
		sheds:       map[string]*telemetry.Counter{},
		reqNs:       reg.Histogram("syzhub_request_ns", nil),
	}
	for _, ev := range []string{"grant", "renew", "release"} {
		m.leaseEvents[ev] = reg.Counter(fmt.Sprintf("syzhub_lease_events_total{event=%q}", ev))
	}
	for _, kind := range []string{"inflight", "rate"} {
		m.sheds[kind] = reg.Counter(fmt.Sprintf("syzhub_backpressure_sheds_total{kind=%q}", kind))
	}
	return m
}

// syncObserved records one exchange's service time and payload size.
func (m *hubMetrics) syncObserved(serviceNs, payloadBytes int64) {
	if m == nil {
		return
	}
	m.syncSvc.Observe(serviceNs)
	m.syncBytes.Add(payloadBytes)
}

// lease records one lease grant, renewal or release.
func (m *hubMetrics) lease(event string) {
	if m == nil {
		return
	}
	m.leaseEvents[event].Inc()
}

// shed records one backpressure rejection.
func (m *hubMetrics) shed(kind string) {
	if m == nil {
		return
	}
	m.sheds[kind].Inc()
}

// request records one served HTTP request. The per-code/path counter
// registers on first use; /metrics itself is never routed here (a
// scrape must not change what the next scrape reads).
func (m *hubMetrics) request(path string, code int, durNs int64) {
	if m == nil {
		return
	}
	m.reqNs.Observe(durNs)
	m.reg.Counter(fmt.Sprintf("syzhub_http_requests_total{code=\"%d\",path=%q}", code, path)).Inc()
}

// statusWriter captures the response status for the Handler
// middleware (WriteHeader may never be called explicitly — an
// implicit 200 from the first Write counts as such).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}
