package seedpool

import (
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// Minimize shrinks a crashing program while preserving the crash
// title — the triage step applied to every repro before reporting.
// It runs against any Executor; a reusable VM keeps its machine state
// across trials, though every Run still returns a fresh Result with
// its own cover slice. Two passes run to a fixed point:
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
	for {
		next, changed := removeOneCall(x, cur, title)
		if !changed {
			break
		}
		cur = next
	}
	simplifyPayloads(x, cur, title)
	return cur
}

// Reproduces reports whether executing p yields a crash with the
// given title.
func Reproduces(x vkernel.Executor, p *prog.Prog, title string) bool {
	res := x.Run(p)
	return res.Crash != nil && res.Crash.Title == title
}

// removeOneCall tries dropping each call in turn; the first removal
// that still crashes is kept.
func removeOneCall(x vkernel.Executor, p *prog.Prog, title string) (*prog.Prog, bool) {
	if len(p.Calls) <= 1 {
		return p, false
	}
	for drop := 0; drop < len(p.Calls); drop++ {
		trial, ok := withoutCall(p, drop)
		if !ok {
			continue
		}
		if Reproduces(x, trial, title) {
			return trial, true
		}
	}
	return p, false
}

// withoutCall is p minus call #drop, with resource indices rebound.
// Returns false when a later call references the dropped result (the
// dependency makes the removal structurally invalid); that is checked
// on p itself, so an illegal trial costs no copy. A legal trial shares
// with p every call the removal leaves untouched and deep-copies, into
// one arena sized to them (prog.Prog.Clone), only the calls whose
// ResultOf shifts down; p itself is never written. p and every trial
// are Minimize's own memory, so simplifyPayloads may edit whichever
// program the removal pass ends on.
func withoutCall(p *prog.Prog, drop int) (*prog.Prog, bool) {
	shifts := 0
	for i, call := range p.Calls {
		if i == drop {
			continue
		}
		uses, after := resultUse(call, drop)
		if uses {
			return nil, false
		}
		if after {
			shifts++
		}
	}
	// One allocation holds the trial's calls and, behind them, the ones
	// to copy.
	n := len(p.Calls) - 1
	buf := make([]*prog.Call, n, n+shifts)
	copy(buf, p.Calls[:drop])
	copy(buf[drop:], p.Calls[drop+1:])
	if shifts == 0 {
		return &prog.Prog{Calls: buf}, true
	}
	shifted := prog.Prog{Calls: buf[n:n]}
	for _, call := range buf {
		if _, after := resultUse(call, drop); after {
			shifted.Calls = append(shifted.Calls, call)
		}
	}
	// The copies' program header becomes the trial's.
	trial := shifted.Clone()
	for i, j := 0, 0; j < len(trial.Calls); i++ {
		if buf[i] != shifted.Calls[j] {
			continue
		}
		c := trial.Calls[j]
		c.ForEachValue(func(v *prog.Value) {
			if v.Type.Kind == prog.KindResource && v.ResultOf > drop {
				v.ResultOf--
			}
		})
		buf[i] = c
		j++
	}
	trial.Calls = buf
	return trial, true
}

// resultUse reports whether call binds a resource to the result of call
// #drop, and whether it binds one to a later call's.
func resultUse(call *prog.Call, drop int) (uses, after bool) {
	call.ForEachValue(func(v *prog.Value) {
		if v.Type.Kind == prog.KindResource {
			uses = uses || v.ResultOf == drop
			after = after || v.ResultOf > drop
		}
	})
	return uses, after
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
