package ccode_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"kernelgpt/internal/ccode"
	"kernelgpt/internal/corpus"
)

var testCorpus = corpus.Build(corpus.TestConfig())

// sources returns the test corpus's C files in name order.
func sources() []string {
	files := testCorpus.Index.Files()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = files[name]
	}
	return out
}

// lexerEdges are the inputs the min(i, n) clamps exist for.
var lexerEdges = []string{
	"", "\"", "\"abc", "\"abc\\", "'", "'\\", "/*", "/* x", "/", "#define A \\", "a\x80b\xffc", "f(", "switch (x) {",
	"void f(void) { g(", "void f(void) { switch (x) {", "void f(void) { switch (x) { case A", "void f(void) { x = ",
	"struct A A={", "struct A A={.f=", "enum {", "struct A {", "int f(",
}

// FuzzLexC: lexing never panics, every token is the source text at its
// offset, offsets strictly increase, and the pooled internal pass
// yields exactly the tokens of a fresh LexC.
func FuzzLexC(f *testing.F) {
	for _, src := range sources() {
		f.Add(src)
	}
	for _, src := range lexerEdges {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks := ccode.LexC(src)
		prev := -1
		for _, tok := range toks {
			if tok.Off <= prev {
				t.Fatalf("offset %d after %d", tok.Off, prev)
			}
			prev = tok.Off
			if tok.Text == "" || src[tok.Off:tok.Off+len(tok.Text)] != tok.Text {
				t.Fatalf("token %q is not the source at offset %d", tok.Text, tok.Off)
			}
		}
		if pooled := ccode.LexPooled(src); !reflect.DeepEqual(pooled, append([]ccode.CToken(nil), toks...)) {
			t.Fatalf("pooled lexing diverged from LexC on %q", src)
		}
	})
}

// FuzzIndexAnalyze: indexing arbitrary text and analysing every
// function it finds never panics, and the memoised Info is what a
// fresh AnalyzeBody of the body returns.
func FuzzIndexAnalyze(f *testing.F) {
	for _, src := range sources() {
		f.Add(src)
	}
	for _, src := range lexerEdges {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ix := ccode.NewIndex(map[string]string{"f.c": src})
		for name, fn := range ix.Functions {
			info := fn.Info()
			if info != fn.Info() {
				t.Fatalf("%s: Info is not memoised", name)
			}
			if fresh := ccode.AnalyzeBody(fn.Body); !reflect.DeepEqual(info, fresh) {
				t.Fatalf("%s: Info() differs from AnalyzeBody(Body)", name)
			}
			info.FindSwitchOn("cmd")
		}
		ix.ConstTable()
	})
}

// TestHasIdent: whole identifier tokens only.
func TestHasIdent(t *testing.T) {
	for _, tc := range []struct {
		text, ident string
		want        bool
	}{
		{"_IOWR(DM_IOCTL, DM_VERSION_CMD, struct dm_ioctl)", "DM_VERSION_CMD", true},
		{"_IOWR(DM_IOCTL, DM_VERSION_CMD, struct dm_ioctl)", "DM_VERSION", false},
		{"_IOC_NR ( command )", "command", true},
		{`"cmd" /* cmd */ 0cmd xcmd cmdx`, "cmd", false},
		{`"a" cmd`, "cmd", true},
		{"", "cmd", false},
	} {
		if got := ccode.HasIdent(tc.text, tc.ident); got != tc.want {
			t.Errorf("HasIdent(%q, %q) = %v, want %v", tc.text, tc.ident, got, tc.want)
		}
	}
}

// TestInfoSharedAcrossGoroutines: Info on one Index from several
// goroutines analyses each body once and hands everyone the same
// value (run under -race).
func TestInfoSharedAcrossGoroutines(t *testing.T) {
	ix := ccode.NewIndex(testCorpus.Index.Files())
	const workers = 8
	got := make([]map[string]*ccode.BodyInfo, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = map[string]*ccode.BodyInfo{}
			for name, fn := range ix.Functions {
				got[w][name] = fn.Info()
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for name, info := range got[0] {
			if got[w][name] != info {
				t.Fatalf("%s: goroutine %d saw a different BodyInfo", name, w)
			}
		}
	}
}
