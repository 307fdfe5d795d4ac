package syzlang_test

import (
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/syzlang"
)

var (
	testCorpus = corpus.Build(corpus.TestConfig())
	testEnv    = testCorpus.Env()
)

// suiteText is the human-written Syzkaller suite of the test corpus.
func suiteText() string { return syzlang.Format(testCorpus.ExistingSuite()) }

// FuzzSyzlangParse: the parser never panics, whatever it accepts
// without error formats to a fixed point of Format∘Parse, and every
// formatting entry point prints what the reference formatter prints,
// on what it accepts and on what it salvages from what it rejects.
// What it accepts also obeys the merge and prune laws (checkAlgebra).
func FuzzSyzlangParse(f *testing.F) {
	f.Add(suiteText())
	for _, h := range testCorpus.Handlers[:8] {
		f.Add(syzlang.Format(corpus.SyzkallerSpec(h)))
	}
	for _, src := range []string{
		"", "resource", "a = ", "a {", "a [", "f(", "f$", "f(a b[",
		"f(a string[\"x\\\"y\\n\"])\n", "f(a b[-1:0x10, \"s\", c[d]]) r\n",
		"s {\n\tf\tint32[0:3]\t(out)\n} [packed, align[8]]\n",
		"u [\n\ta\tint8\n]\n", "x = A, 1, -2\n",
		"x = 1\nx = 2\nf(a flags[x, int32])\nf(b int8)\n",
		"s {\n\ta\tint8\n}\ns [\n\tb\tint8\n]\nresource r[fd]\nresource r[fd]\n",
		"s {\n\ta\tghost\n}\nt {\n\tb\ts\n}\nf$v(a ptr[in, t])\ng$v(a int8)\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, errs := syzlang.Parse(src)
		checkFormat(t, file)
		if len(errs) > 0 {
			return
		}
		text := syzlang.Format(file)
		again, errs := syzlang.Parse(text)
		if len(errs) > 0 {
			t.Fatalf("formatted text does not parse back: %v\nsource %q\nformatted %q", errs[0], src, text)
		}
		if got := syzlang.Format(again); got != text {
			t.Fatalf("Format(Parse(Format(f))) != Format(f)\nsource %q\n first %q\nsecond %q", src, text, got)
		}
		checkAlgebra(t, file)
	})
}

// checkAlgebra: merging a file with itself adds nothing, a merge
// declares every name once per kind, Prune never adds a declaration,
// and the errors Prune leaves name no declaration it kept (one more
// round would drop nothing).
func checkAlgebra(t *testing.T, file *syzlang.File) {
	t.Helper()
	once := syzlang.MergeDedup(file)
	if twice := syzlang.Format(syzlang.MergeDedup(file, file)); twice != syzlang.Format(once) {
		t.Fatalf("MergeDedup(f, f) != MergeDedup(f)\n%s", twice)
	}
	for kind, names := range declNames(once) {
		seen := map[string]bool{}
		for _, n := range names {
			if seen[n] {
				t.Fatalf("MergeDedup kept %s %q twice", kind, n)
			}
			seen[n] = true
		}
	}

	pruned, rest := syzlang.Prune(file, testEnv, syzlang.Validate(file, testEnv))
	had := map[any]bool{}
	forEachDecl(file, func(d any) { had[d] = true })
	forEachDecl(pruned, func(d any) {
		if !had[d] {
			t.Fatalf("Prune added a declaration: %+v", d)
		}
	})
	named := map[string]bool{}
	for _, e := range rest {
		named[e.Decl] = true
	}
	for kind, names := range declNames(pruned) {
		for _, n := range names {
			if named[n] {
				t.Fatalf("Prune left %s %q, which its errors name: %v", kind, n, rest)
			}
		}
	}
}

// declNames lists f's declaration names by namespace; structs and
// unions share one.
func declNames(f *syzlang.File) map[string][]string {
	out := map[string][]string{}
	for _, r := range f.Resources {
		out["resource"] = append(out["resource"], r.Name)
	}
	for _, s := range f.Syscalls {
		out["syscall"] = append(out["syscall"], s.Name())
	}
	for _, s := range f.Structs {
		out["type"] = append(out["type"], s.Name)
	}
	for _, u := range f.Unions {
		out["type"] = append(out["type"], u.Name)
	}
	for _, fl := range f.Flags {
		out["flags"] = append(out["flags"], fl.Name)
	}
	return out
}

func forEachDecl(f *syzlang.File, fn func(any)) {
	for _, r := range f.Resources {
		fn(r)
	}
	for _, s := range f.Syscalls {
		fn(s)
	}
	for _, s := range f.Structs {
		fn(s)
	}
	for _, u := range f.Unions {
		fn(u)
	}
	for _, fl := range f.Flags {
		fn(fl)
	}
}

// TestSyzlangLexPunctZeroAllocs: lexing punctuation and identifiers
// allocates nothing (it used to build a map per punctuation byte and a
// string per token).
func TestSyzlangLexPunctZeroAllocs(t *testing.T) {
	const src = "ioctl$X(fd fd_x, cmd const[X], arg ptr[in, array[int8, 4:8]]) fd_y\nf = A, B\ns {\n}\n"
	lexAll := func() (n int) {
		l := syzlang.NewLexer(src)
		for l.Next().Kind != syzlang.TokEOF {
			n++
		}
		return n
	}
	n := lexAll()
	if n == 0 {
		t.Fatal("lexed nothing")
	}
	if allocs := testing.AllocsPerRun(100, func() { lexAll() }); allocs != 0 {
		t.Fatalf("%v allocations lexing %d punctuation/identifier/integer tokens", allocs, n)
	}
}
