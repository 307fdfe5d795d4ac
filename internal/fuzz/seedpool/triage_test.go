package seedpool

import (
	"slices"
	"testing"

	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/vkernel"
)

const triageSpec = `
resource fd_dev[fd]

openat$dev(fd const[AT_FDCWD], file ptr[in, string["/dev/testdev"]], flags const[O_RDWR], mode const[0]) fd_dev
ioctl$DEV(fd fd_dev, cmd const[1], arg ptr[in, array[int8]])
`

// rejecting is an Executor under which no trial reproduces; it
// records the text of each trial it runs when trials is non-nil.
type rejecting struct{ trials *[]string }

var noResult vkernel.Result

func (x rejecting) Run(p *prog.Prog) *vkernel.Result {
	if x.trials != nil {
		*x.trials = append(*x.trials, p.Serialize())
	}
	return &noResult
}

// bindings lists p's resource bindings in walk order.
func bindings(p *prog.Prog) []int {
	var out []int
	for _, call := range p.Calls {
		call.ForEachValue(func(v *prog.Value) {
			if v.Type.Kind == prog.KindResource {
				out = append(out, v.ResultOf)
			}
		})
	}
	return out
}

// TestRemovalTrialsEditInPlace: a removal the bindings forbid is never
// run; a legal one runs the program minus the call, its later bindings
// shifted down; and a trial that loses the crash is undone, leaving the
// program as it was — all without allocating.
func TestRemovalTrialsEditInPlace(t *testing.T) {
	f, errs := syzlang.Parse(triageSpec)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	tgt, err := prog.Compile(f, syzlang.NewEnv(map[string]uint64{"AT_FDCWD": 0xffffff9c, "O_RDWR": 2}))
	if err != nil {
		t.Fatal(err)
	}
	const open = "openat$dev(0xffffff9c, &\"/dev/testdev\", 0x2, 0x0)\n"
	text := "r0 = " + open + "r1 = " + open + "ioctl$DEV(r1, 0x1, &[0x7, 0x8])\nioctl$DEV(r1, 0x1, 0x0)\n"
	p, err := prog.Deserialize(tgt, text)
	if err != nil {
		t.Fatal(err)
	}
	binds := bindings(p)
	var trials []string
	if removeOneCall(rejecting{&trials}, p, "no such crash") {
		t.Fatal("a removal that loses the crash was kept")
	}
	want := []string{ // dropping call 1, whose fd both ioctls use, is never tried
		"r0 = " + open + "ioctl$DEV(r0, 0x1, &[0x7, 0x8])\nioctl$DEV(r0, 0x1, 0x0)\n",
		"r0 = " + open + "r1 = " + open + "ioctl$DEV(r1, 0x1, 0x0)\n",
		"r0 = " + open + "r1 = " + open + "ioctl$DEV(r1, 0x1, &[0x7, 0x8])\n",
	}
	if !slices.Equal(trials, want) {
		t.Fatalf("trials ran\n%q\nwant\n%q", trials, want)
	}
	if got := p.Serialize(); got != text {
		t.Fatalf("the rejected trials left\n%s\nwant\n%s", got, text)
	}
	if got := bindings(p); !slices.Equal(got, binds) {
		t.Fatalf("the rejected trials left bindings %v, want %v", got, binds)
	}
	if per := testing.AllocsPerRun(100, func() { removeOneCall(rejecting{}, p, "no such crash") }); per != 0 {
		t.Fatalf("a pass of rejected removal trials costs %.1f allocations, want 0", per)
	}
}
