package prog

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// refGen is the reference generator: Generate as it was before
// generation drew from source directly — every draw through math/rand's
// own Rand.Intn, genInt's case through a switch, every array element
// through genValue (a run then packs what its element nodes drew), every
// len walk unpruned. It shares the Gen's call choice, resource lookup and
// arena, which the fast paths did not touch.
type refGen struct{ *Gen }

// newRefGen draws from math/rand itself, not from a source.
func newRefGen(t *Target, seed int64) refGen {
	return refGen{&Gen{T: t, R: rand.New(rand.NewSource(seed))}}
}

func (g refGen) generate(maxCalls int) *Prog {
	g.a.reset()
	p := g.a.newProg(maxCalls+scratchSpare, true)
	calls := g.enabledSyscalls()
	if len(calls) == 0 {
		return p
	}
	n := 1 + g.R.Intn(maxCalls)
	for len(p.Calls) < n {
		g.appendCall(p, g.chooseCall(p, calls), 0)
		if len(p.Calls) > maxCalls+4 {
			break
		}
	}
	return p
}

func (g refGen) appendCall(p *Prog, sc *Syscall, depth int) int {
	if depth > maxCreatorDepth {
		return -1
	}
	call := g.a.call(sc, len(sc.Args))
	for i, f := range sc.Args {
		call.Args[i] = g.genValue(p, f.Type, depth)
	}
	fixLenGroup(call.Sc.Args, call.Args, true)
	for _, a := range call.Args {
		refFixupLens(a)
	}
	p.Calls = g.a.appendCall(p.Calls, call)
	return len(p.Calls) - 1
}

func refFixupLens(v *Value) {
	if v == nil {
		return
	}
	if v.Type.Kind == KindStruct {
		fixLenGroup(v.Type.Fields, v.Fields, true)
	}
	refFixupLens(v.Ptr)
	for _, f := range v.Fields {
		refFixupLens(f)
	}
}

func (g refGen) genValue(p *Prog, ty *Type, depth int) *Value {
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
	case KindResource:
		v.ResultOf = g.findOrMakeResource(p, ty.Res, depth)
	case KindPtr:
		if g.R.Intn(50) == 0 {
			return v
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
		v.Fields = g.a.fields(count)
		for i := range v.Fields {
			v.Fields[i] = g.genValue(p, ty.Elem, depth)
		}
		if ty.isRun() {
			for _, e := range v.Fields {
				v.Data = binary.LittleEndian.AppendUint64(v.Data, e.Scalar)
			}
			v.Fields = nil
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

func (g refGen) genInt(ty *Type) uint64 {
	if ty.Ranged {
		span := ty.Max - ty.Min + 1
		if span <= 0 {
			return uint64(ty.Min)
		}
		return uint64(ty.Min + g.R.Int63n(span))
	}
	switch g.R.Intn(10) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return uint64(g.R.Intn(8))
	case 3:
		return 0xffffffff
	case 4:
		return 0xffffffffffffffff
	case 5:
		return 1 << uint(g.R.Intn(32))
	default:
		return g.R.Uint64() >> uint(g.R.Intn(33))
	}
}

func (g refGen) randBytes(n int) []byte {
	b := g.a.bytes(n)
	for i := range b {
		b[i] = byte(g.R.Intn(256))
	}
	return b
}

func (g refGen) findOrMakeResource(p *Prog, res string, depth int) int {
	if g.R.Intn(40) == 0 {
		return -1
	}
	candidates := g.producers[:0]
	for i, c := range p.Calls {
		if c.Sc.Ret != "" && g.T.compatible(c.Sc.Ret, res) {
			candidates = append(candidates, i)
		}
	}
	g.producers = candidates
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
	return g.appendCall(p, creators[g.R.Intn(len(creators))], depth+1)
}

// generateMatchesReference generates n programs on tgt from seed with
// a Gen and with the reference, and requires the same text for every
// program and the same next draw afterwards.
func generateMatchesReference(t *testing.T, tgt *Target, seed int64, n, maxCalls int) {
	t.Helper()
	g, ref := NewGen(tgt, seed), newRefGen(tgt, seed)
	for i := 0; i < n; i++ {
		if got, want := g.Generate(maxCalls).Serialize(), ref.generate(maxCalls).Serialize(); got != want {
			t.Fatalf("seed %d, program %d:\n%s\nreference:\n%s", seed, i, got, want)
		}
	}
	if g.R.Int63() != ref.R.Int63() {
		t.Fatalf("seed %d: the Gen and the reference consumed different draws", seed)
	}
}

// TestGenerateMatchesReference: Generate — with its draws folded onto
// the Gen's own source, flat scalar runs and len walks pruned by
// Type.holds — builds the programs, and consumes the draws, that the
// reference builds from math/rand, over 2 000 programs per target.
func TestGenerateMatchesReference(t *testing.T) {
	for _, bt := range benchTargets {
		tgt := bt.tgt(t)
		for seed := int64(0); seed < 20; seed++ {
			generateMatchesReference(t, tgt, seed, 100, 2+int(seed%8))
		}
	}
}

// FuzzGenerateMatchesReference searches (seed, program bound) for a
// generation the reference disagrees with, on the deep target.
func FuzzGenerateMatchesReference(f *testing.F) {
	tgt := deepTarget(f)
	f.Fuzz(func(t *testing.T, seed int64, maxCalls uint8) {
		generateMatchesReference(t, tgt, seed, 4, 1+int(maxCalls%12))
	})
}
