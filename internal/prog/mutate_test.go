package prog

import (
	"math/rand"
	"testing"

	"kernelgpt/internal/syzlang"
)

// mutateOnce is one campaign mutation without feedback: an operator
// drawn uniformly from DefaultOperators, applied through MutateOp with
// no splice donor. The result is g's scratch, like MutateOp's.
func mutateOnce(g *Gen, p *Prog, maxCalls int) *Prog {
	ops := DefaultOperators()
	m, _ := g.MutateOp(p, ops[g.R.Intn(len(ops))], &MutateCtx{MaxCalls: maxCalls})
	return m
}

// resSpec embeds resources inside unions and arrays — the shapes
// whose mid-program regeneration historically minted forward
// references (a creator appended after its consumer).
const resSpec = `
resource fd_dev[fd]

openat$dev(fd const[AT_FDCWD], file ptr[in, string["/dev/testdev"]], flags const[O_RDWR], mode const[0]) fd_dev
ioctl$PICK(fd fd_dev, cmd const[1], arg ptr[in, pick_arg])
ioctl$BATCH(fd fd_dev, cmd const[2], arg ptr[in, res_list])

pick_arg [
	num	int64
	dev	fd_dev
]

res_list {
	n	len[devs, int32]
	devs	array[fd_dev]
}
`

func resTarget(t *testing.T) *Target {
	t.Helper()
	f, errs := syzlang.Parse(resSpec)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	env := syzlang.NewEnv(map[string]uint64{"AT_FDCWD": 0xffffff9c, "O_RDWR": 2})
	if verrs := syzlang.Validate(f, env); len(verrs) > 0 {
		t.Fatalf("validate: %v", verrs)
	}
	tgt, err := Compile(f, env)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestMutationsKeepProgramsValid is the regression test for the
// dangling/forward fd-reference escapes: every operator, applied
// thousands of times over resource-heavy programs (with donors, so
// splice runs too), must keep Validate happy. Before the
// genValueAt/removeCall fixes, union and array-element regeneration
// appended creator calls after their consumer and removal left
// re-indexed references dangling.
func TestMutationsKeepProgramsValid(t *testing.T) {
	tgt := resTarget(t)
	g := NewGen(tgt, 1)
	ops := DefaultOperators()
	var donorPool []*Prog
	for i := 0; i < 8; i++ {
		donorPool = append(donorPool, g.Generate(6).Detach())
	}
	ctx := &MutateCtx{
		MaxCalls: 6,
		Donor:    func() *Prog { return donorPool[g.R.Intn(len(donorPool))] },
	}
	p := g.Generate(6)
	for i := 0; i < 4000; i++ {
		op := ops[i%len(ops)]
		m, _ := g.MutateOp(p, op, ctx)
		if err := m.Validate(tgt); err != nil {
			t.Fatalf("iter %d: %s broke the program: %v\n%s", i, op.Name(), err, m.Serialize())
		}
		p = m
		if i%50 == 0 { // refresh donors so splice sees varied shapes
			p = p.Detach() // the chain's head must survive this Generate
			donorPool[i/50%len(donorPool)] = g.Generate(6).Detach()
		}
	}
}

// TestRemoveCallRewiresDependents checks the new removal semantics:
// a call whose fd a later call consumes is removable, and the
// dependent is rewired to another compatible producer when one
// exists rather than dropped or left dangling.
func TestRemoveCallRewiresDependents(t *testing.T) {
	tgt := resTarget(t)
	open := tgt.ByName["openat$dev"]
	use := tgt.ByName["ioctl$PICK"]
	mk := func() *Prog {
		p := &Prog{}
		// Two independent producers, then a consumer bound to the first.
		for i := 0; i < 2; i++ {
			args := make([]*Value, len(open.Args))
			for j, f := range open.Args {
				args[j] = &Value{Type: f.Type, ResultOf: -1}
			}
			p.Calls = append(p.Calls, &Call{Sc: open, Args: args})
		}
		fd := &Value{Type: use.Args[0].Type, ResultOf: 0}
		cmd := &Value{Type: use.Args[1].Type, Scalar: 1, ResultOf: -1}
		arg := &Value{Type: use.Args[2].Type, ResultOf: -1}
		p.Calls = append(p.Calls, &Call{Sc: use, Args: []*Value{fd, cmd, arg}})
		return p
	}
	sawRewire := false
	for seed := int64(0); seed < 64; seed++ {
		g := NewGen(tgt, seed)
		p := mk()
		if !g.removeCall(p) {
			t.Fatalf("seed %d: removal refused", seed)
		}
		if err := p.Validate(tgt); err != nil {
			t.Fatalf("seed %d: removal left invalid program: %v\n%s", seed, err, p.Serialize())
		}
		// When producer 0 was the victim but the consumer survived, its
		// fd must have been rewired to the other producer.
		for _, c := range p.Calls {
			if c.Sc == use && len(p.Calls) == 2 {
				if c.Args[0].ResultOf != 0 {
					t.Fatalf("seed %d: dependent not rewired: %s", seed, p.Serialize())
				}
				sawRewire = true
			}
		}
	}
	if !sawRewire {
		t.Fatal("no seed exercised the rewiring path")
	}
}

// TestRemoveCallCascadesWithoutAlternative: with a single producer,
// removing it must drop the dependent too instead of leaving a
// dangling reference.
func TestRemoveCallCascadesWithoutAlternative(t *testing.T) {
	tgt := resTarget(t)
	open := tgt.ByName["openat$dev"]
	use := tgt.ByName["ioctl$PICK"]
	for seed := int64(0); seed < 32; seed++ {
		g := NewGen(tgt, seed)
		args := make([]*Value, len(open.Args))
		for j, f := range open.Args {
			args[j] = &Value{Type: f.Type, ResultOf: -1}
		}
		p := &Prog{Calls: []*Call{{Sc: open, Args: args}}}
		fd := &Value{Type: use.Args[0].Type, ResultOf: 0}
		cmd := &Value{Type: use.Args[1].Type, Scalar: 1, ResultOf: -1}
		arg := &Value{Type: use.Args[2].Type, ResultOf: -1}
		p.Calls = append(p.Calls, &Call{Sc: use, Args: []*Value{fd, cmd, arg}})
		changed := g.removeCall(p)
		if err := p.Validate(tgt); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Serialize())
		}
		if changed {
			for _, c := range p.Calls {
				if c.Sc == open {
					continue
				}
				if c.Args[0].ResultOf != 0 || p.Calls[0].Sc != open {
					t.Fatalf("seed %d: dangling dependent survived: %s", seed, p.Serialize())
				}
			}
		}
	}
}

// TestMutateStreamDeterministic: the full scheduler-driven mutation
// pipeline — bandit picks, operator application, rewards — replays
// bit-for-bit from the RNG seed.
func TestMutateStreamDeterministic(t *testing.T) {
	tgt := resTarget(t)
	run := func() []string {
		g := NewGen(tgt, 99)
		sched := NewScheduler()
		ops := sched.Ops()
		var donors []*Prog
		for i := 0; i < 4; i++ {
			donors = append(donors, g.Generate(6).Detach())
		}
		ctx := &MutateCtx{MaxCalls: 6, Donor: func() *Prog { return donors[g.R.Intn(len(donors))] }}
		p := g.Generate(6)
		var stream []string
		for i := 0; i < 500; i++ {
			idx := sched.Pick(g.R)
			p, _ = g.MutateOp(p, ops[idx], ctx)
			// Synthetic reward derived from the program shape keeps the
			// bandit state on a deterministic trajectory.
			sched.Reward(idx, len(p.Calls)%3)
			stream = append(stream, p.Serialize())
		}
		return stream
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mutation stream diverged at %d:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

// TestSchedulerAdapts: an operator that keeps yielding coverage must
// end up picked far more often than dry ones; the uniform scheduler
// must stay flat under the same feedback.
func TestSchedulerAdapts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sched := NewScheduler()
	n := len(sched.Ops())
	const hot = 2
	// drive feeds s 8000 picks, rewarding only the hot operator, and
	// returns how often each operator was picked.
	drive := func(s *Scheduler) []int {
		picks := make([]int, n)
		for i := 0; i < 8000; i++ {
			idx := s.Pick(r)
			picks[idx]++
			reward := 0
			if idx == hot {
				reward = 4
			}
			s.Reward(idx, reward)
		}
		return picks
	}
	picks := drive(sched)
	uniformShare := 8000 / n
	if picks[hot] < 2*uniformShare {
		t.Fatalf("adaptive scheduler did not favor the hot operator: %v", picks)
	}
	if weights, total := sched.weights(); weights[hot]/total < 2.0/float64(n) {
		t.Fatalf("hot operator weight too low: %v of %v", weights[hot], total)
	}

	r = rand.New(rand.NewSource(3))
	if picks := drive(NewUniformScheduler()); picks[hot] > 2*uniformShare {
		t.Fatalf("uniform scheduler reacted to feedback: %v", picks)
	}
}

// TestSpliceGraftsDonorSuffix: splice output programs must contain
// calls from both parents and stay valid.
func TestSpliceGraftsDonorSuffix(t *testing.T) {
	tgt := resTarget(t)
	g := NewGen(tgt, 5)
	donor := g.Generate(6).Detach()
	ctx := &MutateCtx{MaxCalls: 6, Donor: func() *Prog { return donor }}
	spliced := 0
	p := g.Generate(6).Detach()
	for i := 0; i < 200; i++ {
		m, _ := g.MutateOp(p, OpSplice{}, ctx)
		if err := m.Validate(tgt); err != nil {
			t.Fatalf("iter %d: %v\n%s", i, err, m.Serialize())
		}
		if len(m.Calls) > len(p.Calls) {
			spliced++
		}
	}
	if spliced == 0 {
		t.Fatal("splice never grew a program from donor calls")
	}
}
