package syzlang

import (
	"fmt"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, errs := Parse(src)
	if len(errs) > 0 {
		t.Fatalf("unexpected parse errors: %v", errs)
	}
	return f
}

// TestMergeDedupFirstWins: the first declaration of a name is kept in
// every kind, a syscall's identity is its call name plus variant, and
// structs and unions share a namespace.
func TestMergeDedupFirstWins(t *testing.T) {
	a := mustParse(t, `resource fd_a[fd]
ioctl$A(fd fd_a, cmd const[1]) fd_a
ioctl(fd fd_a, cmd const[2])
s {
	x	int32
}
fl = 1, 2
`)
	b := mustParse(t, `resource fd_a[fd]
ioctl$A(fd fd_a, cmd const[3])
ioctl$B(fd fd_a, cmd const[4])
s [
	y	int8
]
fl = 3
`)
	got := Format(MergeDedup(a, nil, b))
	want := `resource fd_a[fd]

ioctl$A(fd fd_a, cmd const[1]) fd_a
ioctl(fd fd_a, cmd const[2])
ioctl$B(fd fd_a, cmd const[4])

fl = 1, 2

s {
	x	int32
}
`
	if got != want {
		t.Fatalf("merge:\n%s\nwant:\n%s", got, want)
	}
}

// TestPruneHasNoRoundBound: dropping one declaration can break the one
// that uses it, so a chain of n structs needs n+1 rounds; Prune runs
// them all and keeps what the chain never reached.
func TestPruneHasNoRoundBound(t *testing.T) {
	const n = 12
	var b strings.Builder
	b.WriteString("ioctl$GOOD(fd fd, cmd const[1])\n")
	fmt.Fprintf(&b, "ioctl$BAD(fd fd, cmd const[2], arg ptr[in, s%d])\n", n-1)
	b.WriteString("s0 {\n\tx\tghost_t\n}\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "s%d {\n\tx\ts%d\n}\n", i, i-1)
	}
	f := mustParse(t, b.String())
	env := testEnv()
	pruned, rest := Prune(f, env, Validate(f, env))
	if len(rest) > 0 {
		t.Fatalf("errors left after pruning: %v", rest)
	}
	if got := Format(pruned); got != "ioctl$GOOD(fd fd, cmd const[1])\n" {
		t.Fatalf("pruned to:\n%s", got)
	}
	if len(f.Structs) != n || len(f.Syscalls) != 2 {
		t.Fatal("Prune modified its input")
	}
}

// TestPruneStopsWhenNothingDrops: errors that name no declaration left
// in the file end the loop and are returned as they are.
func TestPruneStopsWhenNothingDrops(t *testing.T) {
	f := mustParse(t, "ioctl$GOOD(fd fd, cmd const[1])\n")
	errs := []*ValidationError{{Decl: "gone", Msg: "stale"}}
	pruned, rest := Prune(f, testEnv(), errs)
	if pruned.count() != 1 || len(rest) != 1 || rest[0] != errs[0] {
		t.Fatalf("pruned %d declarations, left %v", pruned.count(), rest)
	}
}
