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
	"void f(void) { switch (x) { case A: get_user(v, p); /* c */ copy_from_user(&a, p, sizeof(struct s)); } }",
	"void f(void) { switch (x) { case A:\n#define g(a) copy_from_sockptr(a, b)\n g(1); } }",
	"void f(void) { switch (x) { case A: copy_from_user(&a, \"",
	"void f(void) { switch (x) { case A: copy_to_user(p, &a, sizeof(",
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
// function it finds never panics, the memoised Info is what a fresh
// AnalyzeBody of the body returns, and every switch case's recorded
// user-copy summary is what analysing the case body on its own gives.
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
			checkCaseCopies(t, name, info)
		}
		checkCaseCopies(t, "<text>", ccode.AnalyzeBody(src))
		ix.ConstTable()
	})
}

// checkCaseCopies compares each switch case's CopyFromUser and Copies
// with AnalyzeBody("{"+Body+"}"): its CopyFromUser, and its Calls
// that move data across the user boundary.
func checkCaseCopies(t *testing.T, name string, info *ccode.BodyInfo) {
	t.Helper()
	for _, sw := range info.Switches {
		for _, cs := range sw.Cases {
			body := ccode.AnalyzeBody("{" + cs.Body + "}")
			var copies []ccode.CallSite
			for _, c := range body.Calls {
				switch c.Name {
				case "copy_from_user", "copy_to_user", "get_user", "put_user", "memdup_user", "copy_from_sockptr":
					copies = append(copies, c)
				}
			}
			if !reflect.DeepEqual(cs.CopyFromUser, body.CopyFromUser) || !reflect.DeepEqual(cs.Copies, copies) {
				t.Fatalf("%s: case %q records copies %+v / %q, its body analyses to %+v / %q",
					name, cs.Label, cs.Copies, cs.CopyFromUser, copies, body.CopyFromUser)
			}
		}
	}
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
