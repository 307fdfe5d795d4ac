package syzlang_test

import (
	"testing"

	"kernelgpt/internal/syzlang"
)

const benchReps = 16

var sinkN int

// BenchmarkSyzlangParse: one op parses the test corpus's Syzkaller
// suite benchReps times.
func BenchmarkSyzlangParse(b *testing.B) {
	text := suiteText()
	b.ReportAllocs()
	b.SetBytes(int64(len(text)) * benchReps)
	for i := 0; i < b.N; i++ {
		for r := 0; r < benchReps; r++ {
			file, errs := syzlang.Parse(text)
			if len(errs) > 0 {
				b.Fatal(errs[0])
			}
			sinkN += len(file.Syscalls)
		}
	}
}

// BenchmarkParseTypeExpr: one op parses 1024 x 5 standalone type
// expressions of the shapes the generator meets.
func BenchmarkParseTypeExpr(b *testing.B) {
	exprs := []string{
		"const[DM_VERSION]", "ptr[inout, dm_ioctl]", "len[optval, int32]",
		`ptr[in, string["/dev/mapper/control"]]`, "array[int8, 16]",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 1024; r++ {
			for _, e := range exprs {
				te, err := syzlang.ParseTypeExpr(e)
				if err != nil {
					b.Fatal(err)
				}
				sinkN += len(te.Args)
			}
		}
	}
}
