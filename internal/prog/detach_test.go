package prog

import (
	"fmt"
	"strings"
	"testing"
)

// loweredText renders what CompileExecInto made of a program, so two
// lowerings compare byte for byte.
func loweredText(ep *ExecProg) string {
	var b strings.Builder
	for _, c := range ep.Calls {
		fmt.Fprintf(&b, "%s path=%x", c.Sc.Name, c.Path)
		for _, a := range c.Args {
			fmt.Fprintf(&b, " {%#x r%d %x}", a.Scalar, a.Res, a.Blob)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// progValues is every value node under p's calls.
func progValues(progs ...*Prog) map[*Value]bool {
	seen := map[*Value]bool{}
	for _, p := range progs {
		for _, c := range p.Calls {
			c.ForEachValue(func(v *Value) { seen[v] = true })
		}
	}
	return seen
}

// detachShares checks one detached candidate against the Detach
// contract and reports whether a frozen call sat at two positions of it.
func detachShares(t *testing.T, tgt *Target, genSeed int64, first Operator, stacked int) (repeated bool) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("%s x%d, generator seed %d", first.Name(), stacked, genSeed)
		}
	}()
	g0 := NewGen(tgt, genSeed)
	frozen := make([]*Prog, 4) // the seed, then its donors
	for i := range frozen {
		frozen[i] = g0.Generate(8 - 2*min(i, 1)).Detach()
		frozen[i].Freeze()
	}
	seedCalls := map[*Call]bool{}
	for _, p := range frozen {
		for _, c := range p.Calls {
			seedCalls[c] = true
		}
	}
	seedValues := progValues(frozen...)
	side := newMutationSide(tgt, frozen[0], frozen[1:], 1000+genSeed)
	m := side.mutate(first, stacked)
	text := m.Serialize()
	var ep ExecProg
	CompileExecInto(m, &ep)
	lowering := loweredText(&ep)

	d := m.Detach()
	if d == m || len(d.Calls) != len(m.Calls) {
		t.Fatalf("Detach of a %d-call candidate gave %d calls (same program: %v)", len(m.Calls), len(d.Calls), d == m)
	}
	candValues := progValues(m)
	at := map[*Call]int{}
	for i, c := range m.Calls {
		dc := d.Calls[i]
		if c.lowered != nil {
			if dc != c || !seedCalls[c] {
				t.Fatalf("call %d: frozen call not kept by pointer, or not the seed's or a donor's", i)
			}
			if _, ok := at[c]; ok {
				repeated = true
			}
			at[c] = i
			continue
		}
		if dc == c || seedCalls[dc] || dc.lowered != nil {
			t.Fatalf("call %d: an owned call was not copied fresh", i)
		}
		dc.ForEachValue(func(v *Value) {
			if candValues[v] || seedValues[v] {
				t.Fatalf("call %d: the copy of an owned call shares a value with the candidate or the seed", i)
			}
		})
	}

	c := m.Clone()
	for i, cc := range c.Calls {
		if seedCalls[cc] || cc == m.Calls[i] {
			t.Fatalf("Clone call %d is shared", i)
		}
		cc.ForEachValue(func(v *Value) {
			if seedValues[v] || candValues[v] {
				t.Fatalf("Clone call %d shares a value with the seed or the candidate", i)
			}
		})
	}

	side.g.Generate(8) // overwrites m
	if got := d.Serialize(); got != text {
		t.Fatalf("detached candidate changed under the Gen's next Generate:\n%s\nwas\n%s", got, text)
	}
	CompileExecInto(d, &ep)
	if got := loweredText(&ep); got != lowering {
		t.Fatalf("detached candidate lowers differently:\n%s\nwas\n%s", got, lowering)
	}
	d.Freeze() // as the seed pool does
	checkLowering(t, d)
	if got := d.Serialize(); got != text {
		t.Fatal("freezing the detached candidate changed it")
	}
	return repeated
}

// TestDetachSharesOnlyFrozenCalls pins what Detach keeps of a candidate
// mutated from a frozen seed, for every operator alone and stacked on
// another: the frozen calls it shares with its seed or donor by
// pointer, at every position (duplicate repeats one), and fresh copies
// of the calls it owns; the copy serializes and lowers as the candidate
// did after the Gen moves on. Clone of the same candidate shares no
// call and no value with the seed.
func TestDetachSharesOnlyFrozenCalls(t *testing.T) {
	for _, bt := range benchTargets {
		tgt := bt.tgt(t)
		for _, op := range DefaultOperators() {
			repeats := 0
			for seed := int64(0); seed < 60; seed++ {
				if detachShares(t, tgt, seed, op, 1+int(seed%2)) {
					repeats++
				}
			}
			if op.Name() == (OpDuplicate{}).Name() && repeats == 0 {
				t.Errorf("%s: no duplicate candidate repeated a frozen call", bt.name)
			}
		}
	}
}
