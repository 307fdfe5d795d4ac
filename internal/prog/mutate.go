package prog

// Mutation entry point. The individual transformations live in
// operator.go as named Operator implementations; this file holds the
// driver (MutateOp, which applies the operator a Scheduler picked)
// and the shared call-level helpers.

// MutateOp returns a copy of p mutated by one specific operator —
// the scheduler-driven path, where each mutation is credited to
// exactly one operator. If op is inapplicable to p (for example
// splice without a donor), a fallback mutation runs instead so the
// returned program still differs from the seed. The second result is
// the operator that actually mutated the program — the requested op,
// the fallback, or nil when nothing applied (coverage credit must
// follow the operator that did the work, not the one that was asked).
// The returned program is scratch: valid until g's next Generate or
// MutateOp; Detach it to keep it. p may be g's own previous
// result.
func (g *Gen) MutateOp(p *Prog, op Operator, ctx *MutateCtx) (*Prog, Operator) {
	m := g.scratchCopy(p)
	if len(m.Calls) == 0 {
		return g.Generate(ctx.maxCalls()), nil
	}
	applied := op
	if !op.Apply(g, m, ctx) {
		applied = g.fallbackMutate(m, ctx)
	}
	return g.finishMutation(m, ctx.maxCalls()), applied
}

// scratchCopy rewinds the arena and lays the seed out in it — the
// candidate every operator then edits. Frozen calls go in by pointer
// (an operator takes ownership of what it writes, see own); calls of
// an unfrozen seed are deep-copied, so p is never modified whoever
// holds it. A seed that is itself scratch would be overwritten by the
// rewind, so it is detached first (the one heap copy on this path;
// pool seeds are heap-owned and take none).
func (g *Gen) scratchCopy(p *Prog) *Prog {
	p = p.Detach()
	g.a.reset()
	m := g.a.newProg(len(p.Calls)+scratchSpare, true)
	for _, c := range p.Calls {
		m.Calls = append(m.Calls, g.a.share(c))
	}
	return m
}

// own makes call ci of the candidate p writable and returns it. A
// frozen call is replaced, at that position only (the same frozen call
// may sit at several), by a shell: its own Call, Args slice and len
// arguments, every other value still shared with the seed. What an
// operator writes below the shell it owns first, with ownValue or
// rebind.
func (g *Gen) own(p *Prog, ci int) *Call {
	c := p.Calls[ci]
	if c.lowered == nil {
		return c
	}
	shell := g.a.call(c.Sc, len(c.Args))
	copy(shell.Args, c.Args)
	g.a.ownLens(c.Sc.Args, shell.Args)
	p.Calls[ci] = shell
	return shell
}

// ownValue makes value v of call ci writable — the call, then the spine
// from the argument holding v down to v (arena.pathCopy) — and returns
// the copy that took v's place. Nothing records which values of an
// owned call are already copies, so a value is owned again by whoever
// writes it next; only stacked operators and unfrozen seeds pay twice.
func (g *Gen) ownValue(p *Prog, ci int, v *Value) *Value {
	c := g.own(p, ci)
	for i, arg := range c.Args {
		if root, hit := g.a.pathCopy(arg, v); hit != nil {
			c.Args[i] = root
			return hit
		}
	}
	panic("prog: ownValue of a value outside its call")
}

// rebind gives every resource value of call ci the binding bind
// returns for it, owning the call and the spine above a value only
// when its binding changes (arena.rebind).
func (g *Gen) rebind(p *Prog, ci int, bind func(*Value) int) {
	for i, arg := range p.Calls[ci].Args {
		if sub := g.a.rebind(arg, bind); sub != arg {
			g.own(p, ci).Args[i] = sub
		}
	}
}

// fallbackMutate guarantees an inapplicable operator draw still
// mutates, reporting what ran: tweak an argument if the program has
// any mutable value, else grow it (a lone parameterless open call
// offers nothing to mutate in place), else re-append a call copy.
func (g *Gen) fallbackMutate(m *Prog, ctx *MutateCtx) Operator {
	if (OpMutateArg{}).Apply(g, m, ctx) {
		return OpMutateArg{}
	}
	if (OpInsert{}).Apply(g, m, ctx) {
		return OpInsert{}
	}
	if (OpDuplicate{}).Apply(g, m, ctx) {
		return OpDuplicate{}
	}
	return nil
}

// finishMutation recomputes the length fields of the calls the
// mutation owns (a frozen call's are right, or it would not be frozen)
// and regenerates when a mutation emptied the program.
func (g *Gen) finishMutation(m *Prog, maxCalls int) *Prog {
	for _, c := range m.Calls {
		if c.lowered == nil {
			c.FixupLens()
		}
	}
	if len(m.Calls) == 0 {
		return g.Generate(maxCalls)
	}
	return m
}

// mutateArg tweaks one randomly chosen value inside one call.
func (g *Gen) mutateArg(p *Prog) bool {
	idx := g.R.Intn(len(p.Calls))
	call := p.Calls[idx]
	mutable := g.values[:0]
	call.ForEachValue(func(v *Value) {
		site := valueRef{call: idx, v: v, elem: -1}
		switch v.Type.Kind {
		case KindInt:
			mutable = append(mutable, site)
		case KindArray:
			mutable = append(mutable, site)
			if v.Type.isRun() {
				mutable = appendElems(mutable, site)
			}
		case KindFlags:
			if len(v.Type.Vals) > 0 {
				mutable = append(mutable, site)
			}
		case KindString, KindBuffer:
			// Fixed string literals and empty buffers have nothing to
			// corrupt; listing them would make mutateArg a no-op.
			if len(v.Data) > 0 && v.Type.Str == "" {
				mutable = append(mutable, site)
			}
		case KindUnion:
			if len(v.Type.Fields) > 1 {
				mutable = append(mutable, site)
			}
		case KindConst:
			// Corrupting consts is allowed but rare: it probes the
			// kernel's invalid-command handling without destroying
			// most of the program's validity.
			if g.R.Intn(20) == 0 {
				mutable = append(mutable, site)
			}
		}
	})
	g.values = mutable
	if len(mutable) == 0 {
		return false
	}
	site := mutable[g.R.Intn(len(mutable))]
	if site.elem < 0 && site.v.Type.Kind == KindArray {
		g.mutateArray(p, idx, site.v)
		return true
	}
	v := g.ownValue(p, idx, site.v)
	if site.elem >= 0 {
		v.SetRunElem(site.elem, g.mutateInt(v.Type.Elem, v.RunElem(site.elem)))
		return true
	}
	switch v.Type.Kind {
	case KindInt, KindConst:
		v.Scalar = g.mutateInt(v.Type, v.Scalar)
	case KindFlags:
		if len(v.Type.Vals) > 0 {
			v.Scalar = v.Type.Vals[g.R.Intn(len(v.Type.Vals))]
		}
	case KindString, KindBuffer:
		v.Data[g.R.Intn(len(v.Data))] = byte(g.R.Intn(256))
	case KindUnion:
		v.UnionIdx = g.R.Intn(len(v.Type.Fields))
		v.Fields = g.a.fields(1)
		v.Fields[0] = g.genValueAt(p, v.Type.Fields[v.UnionIdx].Type, idx)
	}
	return true
}

// mutateInt returns a tweak of the int (or const) x of type ty:
// regenerated, incremented, one bit flipped or inverted.
func (g *Gen) mutateInt(ty *Type, x uint64) uint64 {
	switch g.R.Intn(4) {
	case 0:
		return g.genInt(ty)
	case 1:
		return x + 1
	case 2:
		return x ^ 1<<uint(g.R.Intn(64))
	}
	return ^x
}

// mutateArray grows, shrinks, or regenerates an element of the array
// value v, which lives inside call callIdx (element regeneration must
// bind resources strictly before that call).
func (g *Gen) mutateArray(p *Prog, callIdx int, v *Value) {
	v = g.ownValue(p, callIdx, v)
	if v.Type.isRun() {
		g.mutateRun(v)
		return
	}
	if v.Type.FixedLen >= 0 {
		// Fixed arrays only mutate elements.
		if len(v.Fields) > 0 {
			idx := g.R.Intn(len(v.Fields))
			v.Fields[idx] = g.genValueAt(p, v.Type.Elem, callIdx)
		}
		return
	}
	if len(v.Fields) == 0 {
		// Shrinking or re-rolling an empty array is a no-op; grow it.
		v.Fields = g.a.appendField(v.Fields, g.genValueAt(p, v.Type.Elem, callIdx))
		return
	}
	switch g.R.Intn(3) {
	case 0: // grow
		v.Fields = g.a.appendField(v.Fields, g.genValueAt(p, v.Type.Elem, callIdx))
	case 1: // shrink
		v.Fields = v.Fields[:len(v.Fields)-1]
	case 2: // mutate element
		idx := g.R.Intn(len(v.Fields))
		v.Fields[idx] = g.genValueAt(p, v.Type.Elem, callIdx)
	}
}

// mutateRun is mutateArray on an owned run: the same draws, with genInt
// standing in for an element's genValueAt.
func (g *Gen) mutateRun(v *Value) {
	elem, n := v.Type.Elem, v.RunLen()
	if v.Type.FixedLen >= 0 {
		if n > 0 {
			i := g.R.Intn(n)
			v.SetRunElem(i, g.genInt(elem))
		}
		return
	}
	if n == 0 {
		v.Data = g.a.appendElem(v.Data, g.genInt(elem))
		return
	}
	switch g.R.Intn(3) {
	case 0: // grow
		v.Data = g.a.appendElem(v.Data, g.genInt(elem))
	case 1: // shrink
		v.TruncateRun(n - 1)
	case 2: // mutate element
		i := g.R.Intn(n)
		v.SetRunElem(i, g.genInt(elem))
	}
}

// removeCall drops one random call — including calls whose results
// later calls consume. Each dependent reference is rewired to another
// earlier compatible producer when one exists; dependents with no
// alternative producer are dropped too (cascading), so the surviving
// program never holds a dangling or forward result index.
func (g *Gen) removeCall(p *Prog) bool {
	if len(p.Calls) <= 1 {
		return false
	}
	victim := g.R.Intn(len(p.Calls))
	dropped := append(g.dropped[:0], make([]bool, len(p.Calls))...)
	g.dropped = dropped
	dropped[victim] = true
	ndropped := 1
	skip := func(i int) bool { return dropped[i] }
	queue := append(g.queue[:0], victim)
	for head := 0; head < len(queue); head++ {
		d := queue[head]
		for ci := d + 1; ci < len(p.Calls); ci++ {
			if dropped[ci] {
				continue
			}
			keep := true
			g.rebind(p, ci, func(v *Value) int {
				if v.ResultOf != d {
					return v.ResultOf
				}
				if alt := g.findCompatible(p, ci, v.Type.Res, skip); alt >= 0 {
					return alt
				}
				keep = false
				return d
			})
			if !keep {
				dropped[ci] = true
				ndropped++
				queue = append(queue, ci)
			}
		}
	}
	g.queue = queue
	if ndropped >= len(p.Calls) {
		return false // would empty the program; let another operator act
	}
	// Compact and remap the surviving references.
	remap := g.indices[:0]
	n := 0
	for i, c := range p.Calls {
		if dropped[i] {
			remap = append(remap, -1)
			continue
		}
		remap = append(remap, n)
		p.Calls[n] = c
		n++
	}
	g.indices = remap
	p.Calls = p.Calls[:n]
	renumber := func(v *Value) int {
		if v.ResultOf < 0 {
			return v.ResultOf
		}
		return remap[v.ResultOf]
	}
	for ci := range p.Calls {
		g.rebind(p, ci, renumber)
	}
	return true
}

// Validate checks internal consistency of a program: every ResultOf
// points at an earlier call with a compatible resource. Used by tests
// and as a fuzzer-side assertion.
func (p *Prog) Validate(t *Target) error {
	for i, c := range p.Calls {
		var err error
		c.ForEachValue(func(v *Value) {
			if err != nil || v.Type.Kind != KindResource || v.ResultOf < 0 {
				return
			}
			if v.ResultOf >= i {
				err = errIndex{call: i, ref: v.ResultOf}
				return
			}
			ret := p.Calls[v.ResultOf].Sc.Ret
			if ret == "" || !t.compatible(ret, v.Type.Res) {
				err = errCompat{call: i, ref: v.ResultOf, want: v.Type.Res, have: ret}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

type errIndex struct{ call, ref int }

func (e errIndex) Error() string {
	return "call " + itoa(e.call) + " references non-earlier result r" + itoa(e.ref)
}

type errCompat struct {
	call, ref  int
	want, have string
}

func (e errCompat) Error() string {
	return "call " + itoa(e.call) + " wants resource " + e.want + " but r" + itoa(e.ref) + " makes " + e.have
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
