package prog

import "math/rand"

// Gen generates and mutates programs for a Target. All randomness
// flows through one seeded stream, so campaigns are reproducible: the
// Gen draws from its source directly, and a caller that picks seeds or
// operators for it (fuzz, seedpool.PickRef, Scheduler.Pick) draws from
// the same source through R.
//
// Every program a Gen returns is scratch: it is built in the Gen's
// reusable arena and stays valid only until the Gen's next
// Generate/Mutate/MutateOp, which overwrites it; a mutated candidate
// may also share frozen calls and subtrees with its seed and donor, so
// it is read-only to the caller. Keep (or edit) one with Prog.Detach. A
// Gen is not safe for concurrent use.
type Gen struct {
	T *Target
	// R is a rand.Rand over the Gen's own source, so every draw through
	// it advances the stream generation draws from. It must not be
	// replaced: a replacement would split the stream in two, and the
	// Gen's own draws would not see it. Build a NewGen per seed instead.
	R *rand.Rand
	// Enabled restricts generation to a syscall subset; nil enables
	// all.
	Enabled map[string]bool
	// NoLocality disables the resource-locality call bias (for the
	// design-choice ablation; stateful bug chains become essentially
	// unreachable without it).
	NoLocality bool
	// resLimited/resLimit bound resource binding during value
	// generation to calls strictly before resLimit and forbid
	// appending creator calls. Mutations regenerating a value inside
	// an existing call set them (via genValueAt) so they cannot
	// manufacture forward references — appended creators would land
	// after the consumer.
	resLimited bool
	resLimit   int

	// src is the stream behind R; generation's per-value draws take it
	// directly (source's folded draws), without R's interface call.
	src *source
	// a is the scratch arena candidates are built in; it is rewound at
	// the top of Generate, Mutate and MutateOp.
	a arena
	// Work buffers, each reset by the one helper that fills it and
	// dead before that helper can run again.
	enabled   []*Syscall // enabledSyscalls
	creators  []*Syscall // creatorsEnabled
	related   []*Syscall // chooseCall
	seen      []int      // chooseCall: seen[sc.ID] == seenEpoch
	seenEpoch int
	producers []int      // findOrMakeResource, findCompatible
	values    []valueRef // mutateArg
	refs      []valueRef // collectValues
	dropped   []bool     // removeCall
	queue     []int      // removeCall
	indices   []int      // removeCall's remap, OpShuffle's perm
	rotated   []*Call    // OpShuffle
}

// NewGen returns a generator with the given seed.
func NewGen(t *Target, seed int64) *Gen {
	src := newSource(seed)
	return &Gen{T: t, R: rand.New(src), src: src}
}

// enabledSyscalls returns the usable syscall set.
func (g *Gen) enabledSyscalls() []*Syscall {
	if g.Enabled == nil {
		return g.T.Syscalls
	}
	out := g.enabled[:0]
	for _, s := range g.T.Syscalls {
		if g.Enabled[s.Name] {
			out = append(out, s)
		}
	}
	g.enabled = out
	return out
}

// Generate produces a program of up to maxCalls calls, inserting
// resource-creator calls as needed so dependencies are satisfied.
// The result is scratch: valid until g's next Generate or MutateOp;
// Detach it to keep it.
func (g *Gen) Generate(maxCalls int) *Prog {
	g.a.reset()
	p := g.a.newProg(maxCalls+scratchSpare, true)
	calls := g.enabledSyscalls()
	if len(calls) == 0 {
		return p
	}
	n := 1 + g.R.Intn(maxCalls)
	for len(p.Calls) < n {
		sc := g.chooseCall(p, calls)
		g.appendCall(p, sc, 0)
		if len(p.Calls) > maxCalls+4 {
			break
		}
	}
	return p
}

// chooseCall picks the next syscall, biased toward calls that consume
// resources the program already produces — Syzkaller's choice-table
// locality, without which multi-step handler state (the CEC
// use-after-free chain) is essentially unreachable in large suites.
func (g *Gen) chooseCall(p *Prog, calls []*Syscall) *Syscall {
	if !g.NoLocality && len(p.Calls) > 0 && g.R.Intn(3) != 0 {
		if len(g.seen) < len(g.T.Syscalls) {
			g.seen = make([]int, len(g.T.Syscalls))
		}
		g.seenEpoch++
		related := g.related[:0]
		for _, c := range p.Calls {
			if c.Sc.Ret == "" {
				continue
			}
			for _, sc := range g.T.Consumers(c.Sc.Ret) {
				if g.seen[sc.ID] == g.seenEpoch || (g.Enabled != nil && !g.Enabled[sc.Name]) {
					continue
				}
				g.seen[sc.ID] = g.seenEpoch
				related = append(related, sc)
			}
		}
		g.related = related
		if len(related) > 0 {
			return related[g.R.Intn(len(related))]
		}
	}
	return calls[g.R.Intn(len(calls))]
}

const maxCreatorDepth = 6

// scratchSpare is the room for growth, in calls, a scratch program's
// Calls backing starts with beyond its expected length (the +4 slack
// Generate and the growing operators allow, plus a creator chain).
const scratchSpare = 12

// appendCall appends a call to sc, first ensuring creators exist for
// its resource arguments.
func (g *Gen) appendCall(p *Prog, sc *Syscall, depth int) int {
	if depth > maxCreatorDepth {
		return -1
	}
	call := g.a.call(sc, len(sc.Args))
	for i, f := range sc.Args {
		call.Args[i] = g.genValue(p, f.Type, depth)
	}
	call.FixupLens()
	p.Calls = g.a.appendCall(p.Calls, call)
	return len(p.Calls) - 1
}

// genValueAt builds a random value destined for the existing call at
// index callIdx: resource references bind only to calls strictly
// before it and no creator calls are appended (they would land after
// the consumer, leaving a forward reference).
func (g *Gen) genValueAt(p *Prog, ty *Type, callIdx int) *Value {
	g.resLimited, g.resLimit = true, callIdx
	v := g.genValue(p, ty, maxCreatorDepth)
	g.resLimited = false
	return v
}

// genValue builds a random value for ty, possibly appending creator
// calls to p first (so resource ResultOf indices stay valid).
func (g *Gen) genValue(p *Prog, ty *Type, depth int) *Value {
	v := g.a.node()
	*v = Value{Type: ty, ResultOf: -1}
	switch ty.Kind {
	case KindConst:
		v.Scalar = ty.Val
	case KindInt:
		v.Scalar = g.genInt(ty)
	case KindFlags:
		if len(ty.Vals) > 0 {
			v.Scalar = ty.Vals[g.R.Intn(len(ty.Vals))]
		}
	case KindLen:
		// Filled by FixupLens.
	case KindResource:
		v.ResultOf = g.findOrMakeResource(p, ty.Res, depth)
	case KindPtr:
		if g.R.Intn(50) == 0 {
			return v // occasional NULL pointer
		}
		v.Ptr = g.genValue(p, ty.Elem, depth)
	case KindString:
		if ty.Str != "" {
			v.Data = g.a.bytes(len(ty.Str))
			copy(v.Data, ty.Str)
		} else {
			v.Data = g.randBytes(1 + g.R.Intn(16))
		}
	case KindBuffer:
		v.Data = g.randBytes(g.R.Intn(64))
	case KindArray:
		count := ty.FixedLen
		if count < 0 {
			if ty.Ranged {
				count = int(ty.Min) + g.R.Intn(int(ty.Max-ty.Min)+1)
			} else {
				count = g.R.Intn(8)
			}
		}
		if ty.isRun() {
			// A scalar run (dm_ioctl's 257 int8s): what genValue would draw
			// per element, packed into the run's Data.
			v.Data = g.a.bytes(8 * count)
			for i := 0; i < count; i++ {
				v.SetRunElem(i, g.genInt(ty.Elem))
			}
			break
		}
		v.Fields = g.a.fields(count)
		for i := range v.Fields {
			v.Fields[i] = g.genValue(p, ty.Elem, depth)
		}
	case KindStruct:
		v.Fields = g.a.fields(len(ty.Fields))
		for i := range v.Fields {
			v.Fields[i] = g.genValue(p, ty.Fields[i].Type, depth)
		}
	case KindUnion:
		if len(ty.Fields) > 0 {
			v.UnionIdx = g.R.Intn(len(ty.Fields))
			v.Fields = g.a.fields(1)
			v.Fields[0] = g.genValue(p, ty.Fields[v.UnionIdx].Type, depth)
		}
	}
	return v
}

// genInt picks an integer: mostly small/boundary values (which is
// what makes range-gated kernel paths reachable at all), sometimes
// fully random. A ranged int draws through R; any other takes the
// branch-free draw source.intValue.
func (g *Gen) genInt(ty *Type) uint64 {
	if ty.Ranged {
		span := ty.Max - ty.Min + 1
		if span <= 0 {
			return uint64(ty.Min)
		}
		return uint64(ty.Min + g.R.Int63n(span))
	}
	return g.src.intValue()
}

func (g *Gen) randBytes(n int) []byte {
	b := g.a.bytes(n)
	for i := range b {
		b[i] = byte(g.src.intn256())
	}
	return b
}

// findOrMakeResource returns the index of a call producing a value
// compatible with res, creating one (recursively) if none exists.
// Occasionally it deliberately returns -1 (bad fd) to probe error
// paths.
func (g *Gen) findOrMakeResource(p *Prog, res string, depth int) int {
	if g.R.Intn(40) == 0 {
		return -1
	}
	limit := len(p.Calls)
	if g.resLimited && g.resLimit < limit {
		limit = g.resLimit
	}
	candidates := g.producers[:0]
	for i, c := range p.Calls[:limit] {
		if c.Sc.Ret != "" && g.T.compatible(c.Sc.Ret, res) {
			candidates = append(candidates, i)
		}
	}
	g.producers = candidates
	if g.resLimited {
		// Mid-program regeneration: bind to an existing producer or
		// pass a bad fd; appending a creator here would place it after
		// the consumer.
		if len(candidates) == 0 {
			return -1
		}
		return candidates[g.R.Intn(len(candidates))]
	}
	if len(candidates) > 0 && g.R.Intn(4) != 0 {
		return candidates[g.R.Intn(len(candidates))]
	}
	creators := g.creatorsEnabled(res)
	if len(creators) == 0 {
		if len(candidates) > 0 {
			return candidates[g.R.Intn(len(candidates))]
		}
		return -1
	}
	sc := creators[g.R.Intn(len(creators))]
	idx := g.appendCall(p, sc, depth+1)
	return idx
}

func (g *Gen) creatorsEnabled(res string) []*Syscall {
	all := g.T.Creators(res)
	if g.Enabled == nil {
		return all
	}
	out := g.creators[:0]
	for _, s := range all {
		if g.Enabled[s.Name] {
			out = append(out, s)
		}
	}
	g.creators = out
	return out
}
