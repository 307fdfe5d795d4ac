package baseline

import (
	"strings"
	"sync"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/syzlang"
)

var testCorpus = corpus.Build(corpus.TestConfig())

func TestSocketsUnsupported(t *testing.T) {
	g := New(testCorpus)
	res := g.GenerateFor(testCorpus.Handler("rds"))
	if res.Err == nil || res.Valid {
		t.Fatal("SyzDescribe must refuse socket handlers")
	}
}

func TestDMWrongDeviceName(t *testing.T) {
	// The paper's Figure 2c: SyzDescribe uses .name, not .nodename,
	// and cannot see through the lookup-table dispatch.
	g := New(testCorpus)
	res := g.GenerateFor(testCorpus.Handler("dm"))
	if res.Spec == nil {
		t.Fatal("nil spec")
	}
	text := syzlang.Format(res.Spec)
	if !strings.Contains(text, "/dev/device-mapper") {
		t.Fatalf("expected the wrong .name-derived path:\n%s", text)
	}
	if strings.Contains(text, "/dev/mapper/control") {
		t.Fatalf("baseline must not discover the nodename path:\n%s", text)
	}
	// Lookup table dispatch is invisible: no ioctl commands found.
	if res.NewSyscalls() != 0 {
		t.Fatalf("baseline should find no dm commands, got %d", res.NewSyscalls())
	}
}

func TestIOCNRHandlerGetsRawLabels(t *testing.T) {
	// controlC0 switches on _IOC_NR(command): the baseline's verbatim
	// case labels are the *_CMD nr macros, not the full values.
	g := New(testCorpus)
	res := g.GenerateFor(testCorpus.Handler("controlC0"))
	if res.Spec == nil || res.NewSyscalls() == 0 {
		t.Fatalf("expected commands for controlC0: %+v", res.Err)
	}
	text := syzlang.Format(res.Spec)
	if !strings.Contains(text, "_CMD]") {
		t.Fatalf("expected raw nr-macro command values:\n%s", text)
	}
}

func TestQuirkFreeDriverWorks(t *testing.T) {
	// On a conventional driver the rules work: right device name,
	// right command values.
	g := New(testCorpus)
	h := testCorpus.Handler("loop0")
	res := g.GenerateFor(h)
	if !res.Valid {
		t.Fatalf("baseline failed on quirk-free driver: %v", res.Err)
	}
	text := syzlang.Format(res.Spec)
	if !strings.Contains(text, h.DevPath) {
		t.Fatalf("wrong device path:\n%s", text)
	}
}

func TestPositionalFieldNames(t *testing.T) {
	g := New(testCorpus)
	res := g.GenerateFor(testCorpus.Handler("loop0"))
	if res.Spec == nil || len(res.Spec.Structs) == 0 {
		t.Fatal("no structs recovered for loop0")
	}
	for _, st := range res.Spec.Structs {
		for _, f := range st.Fields {
			if !strings.HasPrefix(f.Name, "field_") {
				t.Fatalf("expected positional field names, got %q", f.Name)
			}
			if f.Type.Ident == "len" {
				t.Fatalf("baseline must not infer len relations: %s", f.Type)
			}
		}
	}
}

func TestValidSpecsValidate(t *testing.T) {
	g := New(testCorpus)
	env := testCorpus.Env()
	for _, h := range testCorpus.Incomplete(corpus.KindDriver) {
		res := g.GenerateFor(h)
		if !res.Valid {
			continue
		}
		if errs := syzlang.Validate(res.Spec, env); len(errs) > 0 {
			t.Fatalf("%s: valid spec fails validation: %v", h.Name, errs)
		}
	}
}

func TestBaselineCoverageOfIncomplete(t *testing.T) {
	// The baseline succeeds on only a minority of incomplete drivers
	// (Table 1: 20/75 ≈ 27%). The full-scale corpus reproduces that
	// ratio; the thin test corpus only bounds it loosely because the
	// hand-modeled Table 5 drivers (which the baseline handles by
	// design) dominate it.
	if testing.Short() {
		t.Skip("full corpus build")
	}
	c := corpus.Build(corpus.Config{Scale: 1})
	g := New(c)
	results := g.GenerateAll(c.Incomplete(corpus.KindDriver))
	valid := 0
	for _, r := range results {
		if r.Valid {
			valid++
		}
	}
	if valid == 0 {
		t.Fatal("baseline should succeed on at least one driver")
	}
	frac := float64(valid) / float64(len(results))
	if frac < 0.15 || frac > 0.5 {
		t.Fatalf("baseline success fraction %.2f outside the paper's band (27%%)", frac)
	}
}

func TestMergeSpecsValidates(t *testing.T) {
	g := New(testCorpus)
	results := g.GenerateAll(testCorpus.Incomplete(corpus.KindDriver))
	merged := MergeSpecs(results)
	if errs := syzlang.Validate(merged, testCorpus.Env()); len(errs) > 0 {
		t.Fatalf("merged baseline suite invalid: %v", errs[:min(3, len(errs))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestConcurrentGenerateSharesIndex: the baseline reads the memoised
// BodyInfos of the corpus-wide Index, which engine workers share.
// Eight goroutines generating every driver at once must agree with a
// serial run (and, under -race, must not write to what they share).
func TestConcurrentGenerateSharesIndex(t *testing.T) {
	c := corpus.Build(corpus.TestConfig())
	drivers := c.Incomplete(corpus.KindDriver)
	render := func() string {
		var b strings.Builder
		g := New(c)
		for _, h := range drivers {
			if res := g.GenerateFor(h); res.Spec != nil {
				b.WriteString(syzlang.Format(res.Spec))
			}
		}
		return b.String()
	}
	want := render()
	got := make([]string, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = render()
		}(w)
	}
	wg.Wait()
	for w, text := range got {
		if text != want {
			t.Fatalf("goroutine %d diverged from the serial run", w)
		}
	}
}
