package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// a public function of that layer. Spans of one round share Round;
// Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg is the per-name aggregate over every span, sampled into the
// span log or not.
type spanAgg struct {
	Count int64
	Total int64 // summed durations, ns
	Self  int64 // summed durations minus the part child spans cover, ns
}

// tracer is the in-memory span sink of one traced run. Goroutines
// record through their own track and merge into the tracer when the
// track closes, so the hot loops take no lock per span.
type tracer struct {
	now    func() int64 // ns since the trace began
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span              // guarded by mu
	agg   map[string]*spanAgg // guarded by mu
}

func newTracer() *tracer {
	base := time.Now()
	return &tracer{
		now: func() int64 { return int64(time.Since(base)) },
		agg: map[string]*spanAgg{},
	}
}

// frame is one open span on a track's stack.
type frame struct {
	name   string
	id     int64
	start  int64
	child  int64 // ns covered by already-closed children
	record bool
}

// track is one goroutine's view of the tracer: a stack of open spans
// plus local buffers. A nil track records nothing, so traced and
// untraced code share call sites.
type track struct {
	t     *tracer
	round int
	// root is the parent given to this track's outermost spans: the
	// span on another goroutine (or process side) that caused them.
	root int64
	// sample gates the span log only; aggregates always accumulate.
	// Hot loops switch it off for all but every n-th iteration.
	sample bool
	stack  []frame
	spans  []span
	agg    map[string]*spanAgg
}

func (t *tracer) track(round int, root int64) *track {
	if t == nil {
		return nil
	}
	return &track{t: t, round: round, root: root, sample: true, agg: map[string]*spanAgg{}}
}

func (k *track) begin(name string) {
	if k == nil {
		return
	}
	k.stack = append(k.stack, frame{
		name: name, id: k.t.nextID.Add(1), start: k.t.now(), record: k.sample,
	})
}

// end closes the innermost open span and returns its duration.
func (k *track) end() int64 {
	if k == nil {
		return 0
	}
	end := k.t.now()
	f := k.stack[len(k.stack)-1]
	k.stack = k.stack[:len(k.stack)-1]
	dur := end - f.start
	a := k.agg[f.name]
	if a == nil {
		a = &spanAgg{}
		k.agg[f.name] = a
	}
	a.Count++
	a.Total += dur
	a.Self += dur - f.child
	parent := k.root
	if n := len(k.stack); n > 0 {
		k.stack[n-1].child += dur
		parent = k.stack[n-1].id
	}
	if f.record {
		k.spans = append(k.spans, span{
			ID: f.id, Parent: parent, Round: k.round, Name: f.name, Start: f.start, End: end,
		})
	}
	return dur
}

// keep forces the open spans, and those begun until sample is next
// reassigned, into the span log.
func (k *track) keep() {
	if k == nil {
		return
	}
	k.sample = true
	for i := range k.stack {
		k.stack[i].record = true
	}
}

// current returns the innermost open span's id (the track's root when
// none is open), for handing to work this span causes elsewhere.
func (k *track) current() int64 {
	if k == nil {
		return 0
	}
	if n := len(k.stack); n > 0 {
		return k.stack[n-1].id
	}
	return k.root
}

// close merges the track into its tracer. The track must have no open
// spans.
func (k *track) close() {
	if k == nil {
		return
	}
	k.t.mu.Lock()
	defer k.t.mu.Unlock()
	k.t.spans = append(k.t.spans, k.spans...)
	for name, a := range k.agg {
		dst := k.t.agg[name]
		if dst == nil {
			dst = &spanAgg{}
			k.t.agg[name] = dst
		}
		dst.Count += a.Count
		dst.Total += a.Total
		dst.Self += a.Self
	}
	k.spans, k.agg = nil, map[string]*spanAgg{}
}

// chargeChild takes dur out of the self time of parentName's spans: a
// child span that ran on another goroutine's track, where end cannot
// reach the parent's frame.
func (t *tracer) chargeChild(parentName string, dur int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[parentName]
	if a == nil {
		a = &spanAgg{}
		t.agg[parentName] = a
	}
	a.Self -= dur
}

// get returns the aggregate for name (zero when no such span ran).
func (t *tracer) get(name string) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// durations returns the logged durations of every span called name,
// in ns. Only names that are never sampled out give the full set.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// meanNs is the mean duration of name's spans.
func (a spanAgg) meanNs() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Total) / float64(a.Count)
}

// meanSelfNs is the mean self time of name's spans.
func (a spanAgg) meanSelfNs() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Self) / float64(a.Count)
}

// writeSpans writes the span log as JSON lines, ordered by start time.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// aggTable renders the per-span-name aggregates: the raw material the
// per-layer metrics are derived from.
func (t *tracer) aggTable() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	out := fmt.Sprintf("%-32s %10s %14s %14s %12s\n", "span", "count", "total_ms", "self_ms", "mean_ns")
	for _, n := range names {
		a := t.agg[n]
		out += fmt.Sprintf("%-32s %10d %14.3f %14.3f %12.0f\n", n, a.Count, float64(a.Total)/1e6, float64(a.Self)/1e6, a.meanNs())
	}
	return out
}

type trackKey struct{}

// withTrack hands a track to code that only receives a context (the
// llm middleware under Engine.GenerateFor).
func withTrack(ctx context.Context, k *track) context.Context {
	if k == nil {
		return ctx
	}
	return context.WithValue(ctx, trackKey{}, k)
}

func trackFrom(ctx context.Context) *track {
	k, _ := ctx.Value(trackKey{}).(*track)
	return k
}

// --- small statistics helpers -------------------------------------

// quantile returns the q-quantile (0..1) of vals by linear
// interpolation between order statistics. vals need not be sorted.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// percentileLadder is the set of tail percentiles a timing may be
// reported at.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile picks the highest percentile of the ladder, capped
// at limit, that still has at least ten of n samples beyond it; with
// fewer than twenty samples that is the median.
func tailPercentile(n int, limit float64) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if p > limit {
			break
		}
		if float64(n)*(100-p) >= 1000-1e-6 { // n*(1-p/100) >= 10, kept exact for 99.9
			best = p
		}
	}
	return best
}

// tail reports vals at tailPercentile(len(vals), limit), and which
// percentile that was.
func tail(vals []float64, limit float64) (p, v float64) {
	p = tailPercentile(len(vals), limit)
	return p, quantile(vals, p/100)
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
