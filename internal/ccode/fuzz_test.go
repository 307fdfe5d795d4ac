package ccode_test

import (
	"reflect"
	"sort"
	"strings"
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

// callEdges are calls whose arguments carry comments, nested commas,
// or nothing.
var callEdges = []string{
	"void f(void) { g(a /* x, y */, b); h(/* only */); }",
	"void f(void) { g(h(a, b), c[1, 2], {d, e}, (p, q)); }",
	"void f(void) { g(); g(,); g(a,); g(, a); g(a, , b); }",
	"void f(void) { return g(a, // c\n b); }",
	"void f(void) { switch (cmd) { case A: copy_from_user(&x, /* p */ arg, sizeof(x)); } }",
	"void f(void) { g(a, h(b", "void f(void) { switch (x) { case A: g(a, case B: h(b, c); } }",
}

// FuzzIndexAnalyze: indexing arbitrary text and analysing every
// function it finds never panics, the memoised Info is what a fresh
// AnalyzeBody of the body returns, every switch case's recorded
// user-copy summary is what analysing the case body on its own gives,
// and every call's arguments are the texts of its argument tokens.
func FuzzIndexAnalyze(f *testing.F) {
	for _, src := range sources() {
		f.Add(src)
	}
	for _, src := range lexerEdges {
		f.Add(src)
	}
	for _, src := range callEdges {
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
			checkCaseCopies(t, name, info)
			checkCallArgs(t, name, fn.Body, info)
		}
		info := ccode.AnalyzeBody(src)
		checkCaseCopies(t, "<text>", info)
		checkCallArgs(t, "<text>", src, info)
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

// checkCallArgs checks every call site info records from text: each
// entry of Args is the argument's tokens, comments dropped, joined by
// single spaces. A call's tokens are found again, as the run whose
// space-joined texts are the site's Raw, in a re-lex of text, or for a
// case's user copies in a re-lex of "{"+Body+"}" (what they are read
// from).
func checkCallArgs(t *testing.T, name, text string, info *ccode.BodyInfo) {
	t.Helper()
	checkArgs(t, name, ccode.LexC(text), append(append([]ccode.CallSite(nil), info.Calls...), info.Delegations...))
	for _, sw := range info.Switches {
		for _, cs := range sw.Cases {
			checkArgs(t, name, ccode.LexC("{"+cs.Body+"}"), cs.Copies)
		}
	}
}

func checkArgs(t *testing.T, name string, toks []ccode.CToken, sites []ccode.CallSite) {
	t.Helper()
	for _, cs := range sites {
		call, ok := callTokens(toks, cs)
		if !ok {
			t.Fatalf("%s: no run of tokens reads %q", name, cs.Raw)
		}
		// The arguments are the tokens between "(" and the last token,
		// split at the commas outside any bracket.
		var want []string
		inner := call[2 : len(call)-1]
		depth, start := 0, 0
		for k := 0; k <= len(inner); k++ {
			if k < len(inner) && inner[k].Kind == ccode.CPunct {
				switch inner[k].Text {
				case "(", "[", "{":
					depth++
				case ")", "]", "}":
					depth--
				}
			}
			if k == len(inner) || depth == 0 && inner[k].Kind == ccode.CPunct && inner[k].Text == "," {
				var words []string
				for _, tok := range inner[start:k] {
					if tok.Kind != ccode.CComment {
						words = append(words, tok.Text)
					}
				}
				if arg := strings.Join(words, " "); k < len(inner) || arg != "" {
					want = append(want, arg)
				}
				start = k + 1
			}
		}
		if len(cs.Args) != len(want) || len(want) > 0 && !reflect.DeepEqual(cs.Args, want) {
			t.Fatalf("%s: call %q has Args %q, its tokens give %q", name, cs.Raw, cs.Args, want)
		}
	}
}

// callTokens finds the call site's tokens in toks: a run that starts
// with its name and "(" and whose texts joined by single spaces are
// its Raw.
func callTokens(toks []ccode.CToken, cs ccode.CallSite) ([]ccode.CToken, bool) {
	for i := 0; i+1 < len(toks); i++ {
		if toks[i].Text != cs.Name || toks[i+1].Text != "(" {
			continue
		}
		n := -1
		for end := i; end < len(toks) && n < len(cs.Raw); end++ {
			n += len(toks[end].Text) + 1
			if n == len(cs.Raw) && end >= i+2 {
				var b strings.Builder
				for k, tok := range toks[i : end+1] {
					if k > 0 {
						b.WriteByte(' ')
					}
					b.WriteString(tok.Text)
				}
				if b.String() == cs.Raw {
					return toks[i : end+1], true
				}
			}
		}
	}
	return nil, false
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
