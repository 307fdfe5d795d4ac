package telemetry

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock(sec int64) Clock {
	t := time.Unix(sec, 0).UTC()
	return func() time.Time { return t }
}

func TestNilInstrumentsAreInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(5)
	c.Inc()
	g.Add(-1)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryIdempotentAndTyped(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a_total")
	c2 := r.Counter("a_total")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	c1.Add(2)
	if c2.Value() != 2 {
		t.Fatalf("shared counter: got %d, want 2", c2.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("a_total")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count: got %d, want 5", h.Count())
	}
	if h.Sum() != 1+10+11+100+5000 {
		t.Fatalf("sum: got %d", h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE lat_ns histogram
lat_ns_bucket{le="10"} 2
lat_ns_bucket{le="100"} 4
lat_ns_bucket{le="1000"} 4
lat_ns_bucket{le="+Inf"} 5
lat_ns_sum 5122
lat_ns_count 5
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestExpositionSortedAndLabeled(t *testing.T) {
	r := NewRegistry()
	r.Counter(`bytes_total{proto="json"}`).Add(10)
	r.Counter(`bytes_total{proto="binary"}`).Add(20)
	r.Gauge("workers").Add(4)
	r.Histogram(`svc_ns{kind="sync"}`, []int64{100}).Observe(50)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE bytes_total counter
bytes_total{proto="binary"} 20
bytes_total{proto="json"} 10
# TYPE svc_ns histogram
svc_ns_bucket{kind="sync",le="100"} 1
svc_ns_bucket{kind="sync",le="+Inf"} 1
svc_ns_sum{kind="sync"} 50
svc_ns_count{kind="sync"} 1
# TYPE workers gauge
workers 4
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
	// Byte stability: a second render of the same registry must be
	// identical (the double-scrape invariant the hub golden test
	// relies on).
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("exposition is not byte-stable across scrapes")
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Add(3)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type: %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hits_total 3") {
		t.Fatalf("body missing counter: %s", buf.String())
	}
}

func TestClockDefaultsToSystem(t *testing.T) {
	var c Clock
	before := time.Now()
	got := c.Now()
	if got.Before(before.Add(-time.Second)) || got.After(before.Add(time.Minute)) {
		t.Fatalf("nil clock should read system time, got %v", got)
	}
	fixed := fixedClock(1_700_000_000)
	if !fixed.Now().Equal(time.Unix(1_700_000_000, 0).UTC()) {
		t.Fatal("fixed clock must return its pinned instant")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total")
	h := r.Histogram("v_ns", []int64{8})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j % 16))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter: got %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count: got %d, want 8000", h.Count())
	}
}
