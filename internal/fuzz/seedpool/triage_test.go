package seedpool

import (
	"testing"

	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
)

const triageSpec = `
resource fd_dev[fd]

openat$dev(fd const[AT_FDCWD], file ptr[in, string["/dev/testdev"]], flags const[O_RDWR], mode const[0]) fd_dev
ioctl$DEV(fd fd_dev, cmd const[1], arg ptr[in, array[int8]])
`

// TestWithoutCallReferencedAllocatesNothing: a removal trial whose
// dropped call a later call still uses is refused before anything is
// copied; a legal one is the program minus the call, leaving its input
// as it was.
func TestWithoutCallReferencedAllocatesNothing(t *testing.T) {
	f, errs := syzlang.Parse(triageSpec)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	tgt, err := prog.Compile(f, syzlang.NewEnv(map[string]uint64{"AT_FDCWD": 0xffffff9c, "O_RDWR": 2}))
	if err != nil {
		t.Fatal(err)
	}
	const open = "r0 = openat$dev(0xffffff9c, &\"/dev/testdev\", 0x2, 0x0)\n"
	p, err := prog.Deserialize(tgt, open+"ioctl$DEV(r0, 0x1, &[0x7, 0x8])\nioctl$DEV(r0, 0x1, 0x0)\n")
	if err != nil {
		t.Fatal(err)
	}
	if trial, ok := withoutCall(p, 0); ok || trial != nil {
		t.Fatal("dropping the fd's producer was accepted")
	}
	if per := testing.AllocsPerRun(100, func() { withoutCall(p, 0) }); per != 0 {
		t.Fatalf("an illegal removal trial costs %.1f allocations, want 0", per)
	}
	trial, ok := withoutCall(p, 1)
	if !ok {
		t.Fatal("dropping an unreferenced call was refused")
	}
	if got, want := trial.Serialize(), open+"ioctl$DEV(r0, 0x1, 0x0)\n"; got != want {
		t.Fatalf("trial = %q, want %q", got, want)
	}
	if len(p.Calls) != 3 {
		t.Fatal("the trial changed its input")
	}
}
