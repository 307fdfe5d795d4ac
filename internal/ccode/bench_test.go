package ccode_test

import (
	"testing"

	"kernelgpt/internal/ccode"
)

// benchReps repeats the measured call inside one op, so that a single
// iteration (the bench gate runs -benchtime 1x) is milliseconds, not
// microseconds.
const benchReps = 64

var sink int

func dmSource() (name, src string) {
	name = testCorpus.Handler("dm").SourcePath()
	return name, testCorpus.Index.Files()[name]
}

// BenchmarkLexC: one op lexes the dm driver's source file benchReps
// times through the public, caller-owned form.
func BenchmarkLexC(b *testing.B) {
	_, src := dmSource()
	b.ReportAllocs()
	b.SetBytes(int64(len(src)) * benchReps)
	for i := 0; i < b.N; i++ {
		for r := 0; r < benchReps; r++ {
			sink += len(ccode.LexC(src))
		}
	}
}

// BenchmarkNewIndex: one op indexes the dm source file benchReps times
// (what one simulated completion pays to read a prompt of that size).
func BenchmarkNewIndex(b *testing.B) {
	name, src := dmSource()
	files := map[string]string{name: src}
	b.ReportAllocs()
	b.SetBytes(int64(len(src)) * benchReps)
	for i := 0; i < b.N; i++ {
		for r := 0; r < benchReps; r++ {
			sink += len(ccode.NewIndex(files).Functions)
		}
	}
}

// BenchmarkAnalyzeBody: one op analyses every function body of the dm
// source file benchReps times.
func BenchmarkAnalyzeBody(b *testing.B) {
	name, src := dmSource()
	var bodies []string
	for _, fn := range ccode.NewIndex(map[string]string{name: src}).Functions {
		bodies = append(bodies, fn.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < benchReps; r++ {
			for _, body := range bodies {
				sink += len(ccode.AnalyzeBody(body).Calls)
			}
		}
	}
}
