package seedpool

import (
	"slices"

	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// Minimize shrinks a crashing program while preserving the crash
// title — the triage step applied to every repro before reporting.
// It runs against any Executor and edits only its own clone of p, one
// trial at a time in place; on a *vkernel.VM every trial runs
// crash-only (Reproduces), so a warm VM allocates nothing per trial.
// Two passes run to a fixed point:
//
//  1. call removal: drop each call (rebinding resource indices) and
//     keep the removal if the crash still reproduces;
//  2. payload simplification: zero scalar fields and shrink variable
//     arrays one value at a time, keeping changes that preserve the
//     crash.
//
// The result is the small, readable repro a kernel developer would
// receive (Table 4's bug reports).
func Minimize(x vkernel.Executor, p *prog.Prog, title string) *prog.Prog {
	cur := p.Clone()
	if !Reproduces(x, cur, title) {
		return cur // not reproducible as given; return unchanged
	}
	for removeOneCall(x, cur, title) {
	}
	simplifyPayloads(x, cur, title)
	return cur
}

// Reproduces reports whether executing p yields a crash with the
// given title. A VM runs p crash-only; any other Executor runs it.
func Reproduces(x vkernel.Executor, p *prog.Prog, title string) bool {
	var crash *vkernel.Crash
	if vm, ok := x.(*vkernel.VM); ok {
		crash = vm.RunCrash(p)
	} else {
		crash = x.Run(p).Crash
	}
	return crash != nil && crash.Title == title
}

// removeOneCall tries dropping each call of p in turn, in place: a
// call no other call binds a resource to is spliced out and the
// bindings above it shift down. The first removal that still crashes
// is kept; every other is undone, leaving p as it was.
func removeOneCall(x vkernel.Executor, p *prog.Prog, title string) bool {
	if len(p.Calls) <= 1 {
		return false
	}
	for drop := range len(p.Calls) {
		if referenced(p, drop) {
			continue
		}
		call := p.Calls[drop]
		p.Calls = slices.Delete(p.Calls, drop, drop+1)
		shiftResults(p, drop+1, -1)
		if Reproduces(x, p, title) {
			return true
		}
		shiftResults(p, drop, +1)
		p.Calls = slices.Insert(p.Calls, drop, call)
	}
	return false
}

// referenced reports whether a call of p binds a resource to the
// result of call #i.
func referenced(p *prog.Prog, i int) (used bool) {
	for _, call := range p.Calls {
		call.ForEachValue(func(v *prog.Value) {
			used = used || v.Type.Kind == prog.KindResource && v.ResultOf == i
		})
	}
	return used
}

// shiftResults adds by to every resource binding of p to call #from or
// later.
func shiftResults(p *prog.Prog, from, by int) {
	for _, call := range p.Calls {
		call.ForEachValue(func(v *prog.Value) {
			if v.Type.Kind == prog.KindResource && v.ResultOf >= from {
				v.ResultOf += by
			}
		})
	}
}

// simplifyPayloads zeroes non-essential scalars and shrinks arrays in
// place, reverting each change that loses the crash.
func simplifyPayloads(x vkernel.Executor, p *prog.Prog, title string) {
	for _, call := range p.Calls {
		call.ForEachValue(func(v *prog.Value) {
			if v.Type.Kind == prog.KindArray && v.Type.Elem.Kind == prog.KindInt {
				simplifyRun(x, p, call, v, title)
				return
			}
			switch v.Type.Kind {
			case prog.KindInt, prog.KindFlags:
				if v.Scalar == 0 {
					return
				}
				old := v.Scalar
				v.Scalar = 0
				call.FixupLens()
				if !Reproduces(x, p, title) {
					v.Scalar = old
					call.FixupLens()
				}
			case prog.KindArray:
				if v.Type.FixedLen >= 0 {
					return
				}
				for len(v.Fields) > 0 {
					saved := v.Fields
					v.Fields = v.Fields[:len(v.Fields)-1]
					call.FixupLens()
					if !Reproduces(x, p, title) {
						v.Fields = saved
						call.FixupLens()
						break
					}
				}
			case prog.KindString, prog.KindBuffer:
				if v.Type.Str != "" || len(v.Data) == 0 {
					return
				}
				saved := v.Data
				v.Data = v.Data[:0]
				call.FixupLens()
				if !Reproduces(x, p, title) {
					v.Data = saved
					call.FixupLens()
				}
			}
		})
	}
}

// simplifyRun is simplifyPayloads on a run of ints, whose elements the
// walk does not visit: shrink it if it is variable, then zero its
// elements one at a time — the order the walk took when every element
// was a value of its own.
func simplifyRun(x vkernel.Executor, p *prog.Prog, call *prog.Call, v *prog.Value, title string) {
	for v.Type.FixedLen < 0 && v.RunLen() > 0 {
		saved := *v
		v.TruncateRun(v.RunLen() - 1)
		call.FixupLens()
		if !Reproduces(x, p, title) {
			*v = saved
			call.FixupLens()
			break
		}
	}
	for i := range v.RunLen() {
		old := v.RunElem(i)
		if old == 0 {
			continue
		}
		v.SetRunElem(i, 0)
		call.FixupLens()
		if !Reproduces(x, p, title) {
			v.SetRunElem(i, old)
			call.FixupLens()
		}
	}
}
