package syzlang_test

import (
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/syzlang"
)

var testCorpus = corpus.Build(corpus.TestConfig())

// suiteText is the human-written Syzkaller suite of the test corpus.
func suiteText() string { return syzlang.Format(testCorpus.ExistingSuite()) }

// FuzzSyzlangParse: the parser never panics, whatever it accepts
// without error formats to a fixed point of Format∘Parse, and every
// formatting entry point prints what the reference formatter prints,
// on what it accepts and on what it salvages from what it rejects.
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
	})
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
