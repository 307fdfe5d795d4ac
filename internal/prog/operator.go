package prog

// The mutation subsystem is built from named operators. Each operator
// is one self-contained program transformation; the fuzzing loop
// selects among them — uniformly, or through the bandit Scheduler —
// and credits each operator with the new coverage its mutations find.
// Adding an operator means implementing the two-method interface and
// listing it in DefaultOperators (or passing a custom set to
// NewScheduler).

// MutateCtx carries the per-mutation environment an operator may use.
type MutateCtx struct {
	// MaxCalls bounds program growth (the same soft bound Generate
	// honors; operators may exceed it by the usual +4 slack).
	MaxCalls int
	// Donor supplies a second corpus program for crossover operators
	// (splice). It may be nil, or return nil, when no corpus exists;
	// donor-needing operators then report inapplicability. The returned
	// program is read-only — operators copy what they graft — and must
	// outlive the mutation: Donor must not hand back the mutating Gen's
	// own scratch or call that Gen's Generate/Mutate/MutateOp.
	Donor func() *Prog
}

// maxCalls returns the effective call bound.
func (ctx *MutateCtx) maxCalls() int {
	if ctx == nil || ctx.MaxCalls <= 0 {
		return 8
	}
	return ctx.MaxCalls
}

// Operator is one named mutation. Apply mutates p in place, drawing
// all randomness from g.R, and reports whether it changed the
// program. Implementations must keep p valid under p.Validate —
// resource references only ever point at compatible earlier calls.
//
// Apply is invoked by Gen.Mutate/MutateOp on g's scratch candidate. The
// candidate's Calls slice is the operator's to reorder, truncate and
// append to, but the calls in it may be frozen calls of the seed,
// shared by pointer, and an owned call may still share values with
// one: an operator must own what it writes before it writes it —
// g.own for Args[i], g.ownValue for a value's Scalar, Data, Fields,
// UnionIdx or Ptr, g.rebind for ResultOf — and a write without that is
// a bug that corrupts a pooled seed. Those helpers are unexported: an
// Operator implemented outside this package can compose the exported
// operators and edit p.Calls, nothing below. What the built-in
// operators add to p lives in g's arena too.
type Operator interface {
	Name() string
	Apply(g *Gen, p *Prog, ctx *MutateCtx) bool
}

// DefaultOperators returns the full operator set in its canonical
// order. The order is part of campaign determinism: scheduler
// snapshots, Stats.Ops, and operator indices all follow it.
func DefaultOperators() []Operator {
	return []Operator{
		OpMutateArg{},
		OpArray{},
		OpInsert{},
		OpRemove{},
		OpDuplicate{},
		OpSplice{},
		OpConstants{},
		OpShuffle{},
	}
}

// OpMutateArg tweaks one randomly chosen scalar, flags, string,
// buffer, or union value inside one call.
type OpMutateArg struct{}

// Name implements Operator.
func (OpMutateArg) Name() string { return "mutateArg" }

// Apply implements Operator.
func (OpMutateArg) Apply(g *Gen, p *Prog, _ *MutateCtx) bool { return g.mutateArg(p) }

// OpArray resizes a variable-length array or regenerates one element.
type OpArray struct{}

// Name implements Operator.
func (OpArray) Name() string { return "array" }

// Apply implements Operator.
func (OpArray) Apply(g *Gen, p *Prog, _ *MutateCtx) bool {
	refs := g.collectValues(p, KindArray.set())
	if len(refs) == 0 {
		return false
	}
	ref := refs[g.R.Intn(len(refs))]
	g.mutateArray(p, ref.call, ref.v)
	return true
}

// OpInsert appends a freshly generated call (appending keeps every
// existing ResultOf index valid).
type OpInsert struct{}

// Name implements Operator.
func (OpInsert) Name() string { return "insert" }

// Apply implements Operator.
func (OpInsert) Apply(g *Gen, p *Prog, ctx *MutateCtx) bool {
	if len(p.Calls) >= ctx.maxCalls()+4 {
		return false
	}
	calls := g.enabledSyscalls()
	if len(calls) == 0 {
		return false
	}
	g.appendCall(p, calls[g.R.Intn(len(calls))], 0)
	return true
}

// OpRemove drops a random call, rewiring or cascading its dependents
// (see Gen.removeCall).
type OpRemove struct{}

// Name implements Operator.
func (OpRemove) Name() string { return "remove" }

// Apply implements Operator.
func (OpRemove) Apply(g *Gen, p *Prog, _ *MutateCtx) bool { return g.removeCall(p) }

// OpDuplicate re-appends a copy of a random call (same resource
// bindings), probing repeated-operation state bugs like the CEC UAF.
type OpDuplicate struct{}

// Name implements Operator.
func (OpDuplicate) Name() string { return "duplicate" }

// Apply implements Operator.
func (OpDuplicate) Apply(g *Gen, p *Prog, ctx *MutateCtx) bool {
	if len(p.Calls) == 0 || len(p.Calls) >= ctx.maxCalls()+4 {
		return false
	}
	src := p.Calls[g.R.Intn(len(p.Calls))]
	p.Calls = g.a.appendCall(p.Calls, g.a.share(src))
	return true
}

// OpSplice is corpus crossover: it keeps a random prefix of the
// program and grafts a random suffix of a donor seed onto it.
// Resource references inside the grafted suffix are rebased; those
// pointing into the donor's discarded prefix are rewired to a
// compatible producer in the spliced program, or degraded to the
// bad-fd sentinel when none exists.
type OpSplice struct{}

// Name implements Operator.
func (OpSplice) Name() string { return "splice" }

// Apply implements Operator.
func (OpSplice) Apply(g *Gen, p *Prog, ctx *MutateCtx) bool {
	if ctx == nil || ctx.Donor == nil || len(p.Calls) == 0 {
		return false
	}
	donor := ctx.Donor()
	if donor == nil || len(donor.Calls) == 0 {
		return false
	}
	j := 1 + g.R.Intn(len(p.Calls)) // keep p.Calls[:j]
	k := g.R.Intn(len(donor.Calls)) // graft donor.Calls[k:]
	max := ctx.maxCalls() + 4
	if j == len(p.Calls) && j >= max {
		// Keep-everything cut on a size-capped program: nothing would
		// be truncated and nothing can be grafted.
		return false
	}
	p.Calls = p.Calls[:j]
	for di := k; di < len(donor.Calls) && len(p.Calls) < max; di++ {
		at := len(p.Calls)
		p.Calls = g.a.appendCall(p.Calls, g.a.share(donor.Calls[di]))
		g.rebind(p, at, func(v *Value) int {
			switch {
			case v.ResultOf < 0:
				return v.ResultOf
			case v.ResultOf >= k:
				return v.ResultOf - k + j
			}
			// Reference into the donor's discarded prefix: rewire into
			// the spliced program or degrade to bad fd.
			return g.findCompatible(p, at, v.Type.Res, nil)
		})
	}
	return true
}

// interestingValues are the boundary constants OpConstants injects:
// zeros, small counts, sign/width boundaries, page- and mask-shaped
// values — the integers range-gated kernel paths actually compare
// against.
var interestingValues = []uint64{
	0, 1, 7, 8, 16, 63, 64, 127, 128, 255, 256, 511, 512,
	1023, 1024, 4095, 4096, 0x7fff, 0x8000, 0xffff, 0x10000,
	1 << 20, 1<<20 + 1, 0x7fffffff, 0x80000000, 0xffffffff,
	1 << 32, 1 << 48, 1<<63 - 1, 1 << 63, ^uint64(0),
}

// OpConstants replaces one integer (or flags) value with an
// interesting boundary constant; ranged integers also probe their
// declared Min/Max edges and the first out-of-range values.
type OpConstants struct{}

// Name implements Operator.
func (OpConstants) Name() string { return "constants" }

// Apply implements Operator.
func (OpConstants) Apply(g *Gen, p *Prog, _ *MutateCtx) bool {
	refs := g.collectValues(p, KindInt.set()|KindFlags.set())
	if len(refs) == 0 {
		return false
	}
	ref := refs[g.R.Intn(len(refs))]
	v := g.ownValue(p, ref.call, ref.v)
	if ref.elem >= 0 {
		v.SetRunElem(ref.elem, g.constant(v.Type.Elem))
	} else {
		v.Scalar = g.constant(v.Type)
	}
	return true
}

// constant draws OpConstants' replacement for an int or flags of type ty.
func (g *Gen) constant(ty *Type) uint64 {
	switch {
	case ty.Kind == KindFlags && len(ty.Vals) > 0:
		switch g.R.Intn(3) {
		case 0: // combine two declared values
			a := ty.Vals[g.R.Intn(len(ty.Vals))]
			b := ty.Vals[g.R.Intn(len(ty.Vals))]
			return a | b
		case 1: // clear
			return 0
		}
		// boundary constant in a flags slot
	case ty.Ranged:
		edges := []uint64{
			uint64(ty.Min), uint64(ty.Max),
			uint64(ty.Min) - 1, uint64(ty.Max) + 1,
			interestingValues[g.R.Intn(len(interestingValues))],
		}
		return edges[g.R.Intn(len(edges))]
	}
	return interestingValues[g.R.Intn(len(interestingValues))]
}

// OpShuffle rotates a contiguous block of calls, reordering the
// operation sequence while keeping resource references valid:
// references that would point forward after the rotation are rewired
// to a compatible earlier producer or degraded to the bad-fd
// sentinel. Reordering probes ordering-sensitive handler state
// (issue-before-setup, teardown-before-use).
type OpShuffle struct{}

// Name implements Operator.
func (OpShuffle) Name() string { return "shuffle" }

// Apply implements Operator.
func (OpShuffle) Apply(g *Gen, p *Prog, _ *MutateCtx) bool {
	n := len(p.Calls)
	if n < 3 {
		return false
	}
	a := g.R.Intn(n - 1)        // segment start
	size := 2 + g.R.Intn(n-a-1) // segment [a, a+size), size >= 2
	b := a + size
	m := 1 + g.R.Intn(size-1) // left-rotation amount
	// perm maps old index -> new index.
	perm := g.indices[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, i)
	}
	g.indices = perm
	rotated := append(g.rotated[:0], p.Calls[a:b]...)
	g.rotated = rotated
	for i := 0; i < size; i++ {
		ni := a + ((i-m)%size+size)%size
		perm[a+i] = ni
		p.Calls[ni] = rotated[i]
	}
	// Remap references through the permutation; any reference the
	// rotation made forward-pointing is rewired or degraded.
	for ni := range p.Calls {
		g.rebind(p, ni, func(v *Value) int {
			if v.ResultOf < 0 {
				return v.ResultOf
			}
			nr := perm[v.ResultOf]
			if nr >= ni {
				displaced := nr
				nr = g.findCompatible(p, ni, v.Type.Res, func(i int) bool { return i == displaced })
			}
			return nr
		})
	}
	return true
}

// valueRef locates one mutation site inside a program: the value v
// itself when elem is -1, else element elem of the run v.
type valueRef struct {
	call int
	v    *Value
	elem int
}

// appendElems appends a site per element of the run at.v.
func appendElems(out []valueRef, at valueRef) []valueRef {
	for i := range at.v.RunLen() {
		at.elem = i
		out = append(out, at)
	}
	return out
}

// collectValues gathers every value of a kind in want, in walk order,
// tagged with its call index (mutation sites need the index to bound
// resource binding).
func (g *Gen) collectValues(p *Prog, want kindSet) []valueRef {
	out := g.refs[:0]
	for i, c := range p.Calls {
		for _, a := range c.Args {
			out = collect(out, i, a, want)
		}
	}
	g.refs = out
	return out
}

// collect appends v and the values under v whose kind is in want — a
// run's elements as (run, index) sites, where its element nodes stood —
// and does not enter a subtree that holds none of them.
func collect(out []valueRef, call int, v *Value, want kindSet) []valueRef {
	if v == nil || v.Type.holds&want == 0 {
		return out
	}
	ref := valueRef{call: call, v: v, elem: -1}
	if want.has(v.Type.Kind) {
		out = append(out, ref)
	}
	switch {
	case v.Type.Kind == KindArray && v.Type.Elem.holds&want == 0:
		return out // not one element is wanted: OpArray meeting dm_ioctl's int8s
	case v.Type.isRun():
		return appendElems(out, ref)
	}
	out = collect(out, call, v.Ptr, want)
	for _, f := range v.Fields {
		out = collect(out, call, f, want)
	}
	return out
}

// findCompatible returns the index of a random call before limit
// whose result satisfies res, or -1 — the bad-fd sentinel — when
// none exists. skip, when non-nil, filters out candidate indices
// (the rotation's displaced producer, a removal's dropped set).
func (g *Gen) findCompatible(p *Prog, limit int, res string, skip func(int) bool) int {
	candidates := g.producers[:0]
	for i := 0; i < limit && i < len(p.Calls); i++ {
		if skip != nil && skip(i) {
			continue
		}
		if ret := p.Calls[i].Sc.Ret; ret != "" && g.T.compatible(ret, res) {
			candidates = append(candidates, i)
		}
	}
	g.producers = candidates
	if len(candidates) == 0 {
		return -1
	}
	return candidates[g.R.Intn(len(candidates))]
}
