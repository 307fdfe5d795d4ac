package llm

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"

	"kernelgpt/internal/telemetry"
)

// fakeClient is a scriptable Client for middleware tests.
type fakeClient struct {
	mu    sync.Mutex
	calls int
	// failFirst makes the first n calls fail.
	failFirst int
	usage     UsageCounter
}

var errFlaky = errors.New("transient backend error")

func (f *fakeClient) Complete(ctx context.Context, req Request) (Response, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	fail := n <= f.failFirst
	f.mu.Unlock()
	if fail {
		return Response{}, errFlaky
	}
	u := Usage{Calls: 1, PromptTokens: CountTokens(req.Messages[0].Content), CompletionTokens: 2}
	f.usage.Record(u)
	return Response{Text: "echo:" + req.Messages[0].Content, Usage: u}, nil
}

func (f *fakeClient) Usage() Usage { return f.usage.Snapshot() }
func (f *fakeClient) Name() string { return "fake" }

func req(content string) Request {
	return Request{Messages: []Message{{Role: "user", Content: content}}, Purpose: "identifier"}
}

func TestCacheHitMiss(t *testing.T) {
	fake := &fakeClient{}
	c := Chain(fake, WithCache(8))
	ctx := context.Background()

	r1, err := c.Complete(ctx, req("prompt-a"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.Usage.Calls != 1 {
		t.Fatalf("first call must miss and bill: %+v", r1)
	}
	r2, err := c.Complete(ctx, req("prompt-a"))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.Text != r1.Text {
		t.Fatalf("second identical call must hit: %+v", r2)
	}
	if r2.Usage != (Usage{}) {
		t.Fatalf("cache hits must not bill: %+v", r2.Usage)
	}
	if u := c.Usage(); u.Calls != 1 {
		t.Fatalf("cumulative usage must count only real calls: %+v", u)
	}
	if _, err := c.Complete(ctx, req("prompt-b")); err != nil {
		t.Fatal(err)
	}
	cc, ok := FindCache(c)
	if !ok {
		t.Fatal("FindCache failed on direct cache")
	}
	if st := cc.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

func TestCacheKeyRespectsPurposeNotDriver(t *testing.T) {
	fake := &fakeClient{}
	c := NewCaching(fake, 8)
	ctx := context.Background()
	r := Request{Messages: []Message{{Role: "user", Content: "x"}}, Purpose: "identifier", Driver: "dm"}
	if _, err := c.Complete(ctx, r); err != nil {
		t.Fatal(err)
	}
	other := r
	other.Driver = "rds" // different driver, same question: must hit
	resp, _ := c.Complete(ctx, other)
	if !resp.Cached {
		t.Fatal("driver metadata must not fragment the cache")
	}
	typ := r
	typ.Purpose = "type" // different stage: must miss
	resp, _ = c.Complete(ctx, typ)
	if resp.Cached {
		t.Fatal("purpose must be part of the cache key")
	}
}

func TestCacheEviction(t *testing.T) {
	fake := &fakeClient{}
	c := NewCaching(fake, 2)
	ctx := context.Background()
	for _, p := range []string{"a", "b", "c"} { // "a" evicted
		if _, err := c.Complete(ctx, req(p)); err != nil {
			t.Fatal(err)
		}
	}
	if resp, _ := c.Complete(ctx, req("a")); resp.Cached {
		t.Fatal("LRU must have evicted the oldest entry")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("evictions not counted: %+v", st)
	}
}

// TestChainedMiddlewareUnderRace hammers the chain engine.New builds
// (telemetry → cache → sim) from many goroutines; run with -race, this
// is the regression test for the Usage data race.
func TestChainedMiddlewareUnderRace(t *testing.T) {
	sim := NewSim("gpt-4", 17)
	m := NewMetrics(telemetry.NewRegistry())
	c := Chain(sim, WithTelemetry(m, nil), WithCache(64))
	prompts := []Request{}
	for i := 0; i < 8; i++ {
		r := req(fmt.Sprintf("%s\nprobe %d\n%s\n%s", SecInstruction, i, SecSource, simDMSource))
		r.Purpose = "identifier"
		prompts = append(prompts, r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := c.Complete(context.Background(), prompts[(g+i)%len(prompts)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	u := c.Usage()
	if u.Calls == 0 || u.Calls > 8*20 {
		t.Fatalf("usage totals implausible: %+v", u)
	}
	cc, ok := FindCache(c)
	if !ok {
		t.Fatal("FindCache must walk Unwrap chains")
	}
	st := cc.Stats()
	if st.Hits == 0 {
		t.Fatalf("expected cache hits under repetition: %+v", st)
	}
	if got := m.Requests.Value(); got != 8*20 || m.CacheHits.Value() != int64(st.Hits) {
		t.Fatalf("telemetry saw %d requests, %d hits; want %d requests, %d hits",
			got, m.CacheHits.Value(), 8*20, st.Hits)
	}
}

// TestSimConcurrentDeterminism checks that concurrent completions on
// one SimModel agree with serial ones (completions are pure; only
// accounting is shared).
func TestSimConcurrentDeterminism(t *testing.T) {
	serial := NewSim("gpt-4", 9)
	want, err := serial.Complete(context.Background(), Request{Messages: identPrompt(simDMSource, "")})
	if err != nil {
		t.Fatal(err)
	}
	shared := NewSim("gpt-4", 9)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := shared.Complete(context.Background(), Request{Messages: identPrompt(simDMSource, "")})
			if err != nil {
				t.Error(err)
				return
			}
			if got.Text != want.Text {
				t.Errorf("concurrent completion diverged")
			}
		}()
	}
	wg.Wait()
	if u := shared.Usage(); u.Calls != 8 {
		t.Fatalf("usage lost calls under concurrency: %+v", u)
	}
}

// TestCacheKeyHashesInPlace: cacheKey digests the bytes the copying
// form it replaced digested.
func TestCacheKeyHashesInPlace(t *testing.T) {
	copying := func(req Request) string {
		h := sha256.New()
		h.Write([]byte(req.Purpose))
		for _, m := range req.Messages {
			h.Write([]byte{0})
			h.Write([]byte(m.Role))
			h.Write([]byte{0})
			h.Write([]byte(m.Content))
		}
		return string(h.Sum(nil))
	}
	for _, r := range []Request{
		{},
		{Purpose: "type"},
		{Purpose: "repair", Driver: "dm", Messages: []Message{{Role: "system", Content: "s"}, {Role: "user", Content: "é\x00x"}}},
		{Messages: []Message{{}, {Role: "user"}}},
	} {
		if got, want := cacheKey(r), copying(r); got != want {
			t.Fatalf("cacheKey(%+v) = %x, want %x", r, got, want)
		}
	}
}
