package seedpool

import (
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// withoutCallReference is the removal trial Minimize's in-place splice
// replaced: a whole clone of p minus call #drop, rebound in the copy.
// It is kept as the oracle the in-place trials must match byte for
// byte.
func withoutCallReference(p *prog.Prog, drop int) (*prog.Prog, bool) {
	referenced := false
	for i, call := range p.Calls {
		if i == drop {
			continue
		}
		call.ForEachValue(func(v *prog.Value) {
			if v.Type.Kind == prog.KindResource && v.ResultOf == drop {
				referenced = true
			}
		})
	}
	if referenced {
		return nil, false
	}
	c := p.Clone()
	c.Calls = append(c.Calls[:drop], c.Calls[drop+1:]...)
	for _, call := range c.Calls {
		call.ForEachValue(func(v *prog.Value) {
			if v.Type.Kind == prog.KindResource && v.ResultOf > drop {
				v.ResultOf--
			}
		})
	}
	return c, true
}

// minimizeReference is Minimize over withoutCallReference.
func minimizeReference(x vkernel.Executor, p *prog.Prog, title string) *prog.Prog {
	cur := p.Clone()
	if !Reproduces(x, cur, title) {
		return cur
	}
	for changed := true; changed && len(cur.Calls) > 1; {
		changed = false
		for drop := range cur.Calls {
			if trial, ok := withoutCallReference(cur, drop); ok && Reproduces(x, trial, title) {
				cur, changed = trial, true
				break
			}
		}
	}
	simplifyPayloads(x, cur, title)
	return cur
}

// The deep crash set is a fuzz campaign's, and fuzz imports this
// package, so the tests over it live in package seedpool_test and
// reach the trials through these.
var (
	RemoveOneCall        = removeOneCall
	WithoutCallReference = withoutCallReference
	MinimizeReference    = minimizeReference
	Bindings             = bindings
	Rejecting            = func(trials *[]string) vkernel.Executor { return rejecting{trials} }
)
