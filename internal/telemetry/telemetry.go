// Package telemetry is the fleet's observability substrate: a
// stdlib-only metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms with zero-allocation hot-path
// recording), Prometheus text-format exposition for scraping, and a
// crash flight recorder (flight.go) — a bounded ring of recent events
// dumped to disk when something goes wrong.
//
// There are two kinds of record. Views of a campaign are the
// producer's own (a fuzz campaign's boundary Progress, from which its
// counters and histograms are fed); point events — a crash, a sync, a
// progress window, an HTTP request — are Event values, written as JSONL
// in the sim.TracePoint shape so a flight dump parses as a trace.
//
// Two disciplines shape the package:
//
//   - The disabled path is near-zero. Every metric method is nil-safe:
//     a nil *Counter, *Gauge, *Histogram, or *FlightRecorder is an
//     inert no-op, so instrumented code carries telemetry as plain
//     fields and pays one nil check per event when the operator has
//     not asked for metrics. No global registry exists to tempt
//     always-on recording.
//
//   - All clock use goes through the injected Clock seam. SystemClock
//     is the single sanctioned wall-clock read (the detrand analyzer
//     carves out exactly that function), which is what lets golden
//     tests pin /metrics and flight dumps byte-for-byte under a fixed
//     clock, and keeps telemetry from smuggling wall-clock state into
//     the deterministic fuzzing path. Telemetry is strictly
//     write-only from the instrumented code's point of view: nothing
//     here ever feeds back into RNG, scheduling, or coverage.
package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the injectable time source every telemetry consumer
// threads instead of reading time.Now directly. The zero value (nil)
// falls back to the system wall clock, so production callers pass
// nothing and tests pass a fixed or stepped function.
type Clock func() time.Time

// SystemClock is the process wall clock — the one sanctioned raw
// time.Now read in the deterministic tree. The detrand analyzer
// carves out exactly this function; every other wall-clock read in a
// policed package must arrive through a Clock value.
func SystemClock() time.Time {
	return time.Now()
}

// Now returns the clock's current time, defaulting to SystemClock
// when c is nil.
func (c Clock) Now() time.Time {
	if c == nil {
		return SystemClock()
	}
	return c()
}

// metric is one registered instrument; write emits its exposition
// lines.
type metric interface {
	write(w io.Writer, name string)
}

// Registry holds named metrics and renders them in Prometheus text
// format. Metric names follow Prometheus conventions
// (snake_case, unit-suffixed: *_total counters, *_ns histograms) and
// may carry a label set in curly braces — the full "name{labels}"
// string is the registry key, and exposition merges the le label into
// histogram bucket lines. Registration is idempotent: asking twice
// for the same name returns the same instrument, so packages can
// build their metric bundles independently over a shared registry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

// lookup returns the named metric, creating it with mk on first use.
// A name registered with a different instrument type panics — that is
// a programming error, not an operational condition.
func (r *Registry) lookup(name string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// Counter returns the named monotone counter, registering it on first
// use. A nil registry returns a nil (inert) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() metric { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return c
}

// Gauge returns the named gauge, registering it on first use. A nil
// registry returns a nil (inert) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() metric { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, registering it
// with the given ascending upper bounds on first use (nil bounds
// select LatencyBuckets). A nil registry returns a nil (inert)
// histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() metric { return newHistogram(bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return h
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format, sorted by full metric name so identical registry
// contents always serialize to identical bytes (the golden-scrape
// invariant). Values are integers throughout — counts and nanosecond
// sums — so no float formatting can drift between platforms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	ms := make([]metric, len(names))
	sort.Strings(names)
	for i, name := range names {
		ms[i] = r.metrics[name]
	}
	r.mu.Unlock()
	bw := &errWriter{w: w}
	lastFamily := ""
	for i, name := range names {
		family, _ := splitLabels(name)
		if family != lastFamily {
			lastFamily = family
			kind := "counter"
			switch ms[i].(type) {
			case *Gauge:
				kind = "gauge"
			case *Histogram:
				kind = "histogram"
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", family, kind)
		}
		ms[i].write(bw, name)
	}
	return bw.err
}

// Handler serves the registry as a Prometheus scrape endpoint
// (GET /metrics).
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// errWriter latches the first write error so the exposition loop does
// not need per-line error plumbing.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}

// splitLabels separates "name{labels}" into the metric family and the
// brace-enclosed label body ("" when unlabeled).
func splitLabels(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// --- counter ---

// Counter is a monotone atomic counter. All methods are safe for
// concurrent use and inert on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.v.Load())
}

// --- gauge ---

// Gauge is an atomic instantaneous value (set or add/subtract). All
// methods are safe for concurrent use and inert on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative to decrement).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, g.v.Load())
}

// --- histogram ---

// LatencyBuckets is the default nanosecond bucket ladder: powers of
// four from 1µs (just under one compiled exec) to ~4.4min, so one
// ladder spans per-exec costs, triage passes, hub syncs, and whole
// work units without per-metric tuning.
var LatencyBuckets = []int64{
	1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22,
	1 << 24, 1 << 26, 1 << 28, 1 << 30, 1 << 32, 1 << 34, 1 << 36, 1 << 38,
}

// Histogram is a fixed-bucket distribution of int64 observations
// (latencies in nanoseconds by convention). Recording is lock-free
// and allocation-free: one linear scan over the bounds plus three
// atomic adds. Concurrent scrapes may observe a sum/count pair
// mid-update; the drift is one observation and self-corrects on the
// next scrape (scrape-side smearing, the standard Prometheus
// trade-off).
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // one per bound, plus the +Inf overflow
	sum    atomic.Int64
	count  atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

func (h *Histogram) write(w io.Writer, name string) {
	family, labels := splitLabels(name)
	line := func(suffix, extraLabels string, v int64) {
		switch {
		case labels == "" && extraLabels == "":
			fmt.Fprintf(w, "%s%s %d\n", family, suffix, v)
		case labels == "":
			fmt.Fprintf(w, "%s%s{%s} %d\n", family, suffix, extraLabels, v)
		case extraLabels == "":
			fmt.Fprintf(w, "%s%s{%s} %d\n", family, suffix, labels, v)
		default:
			fmt.Fprintf(w, "%s%s{%s,%s} %d\n", family, suffix, labels, extraLabels, v)
		}
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		line("_bucket", fmt.Sprintf("le=%q", fmt.Sprintf("%d", b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	line("_bucket", `le="+Inf"`, cum)
	line("_sum", "", h.sum.Load())
	line("_count", "", h.count.Load())
}
