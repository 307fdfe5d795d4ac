package prog

import (
	"fmt"
	"strings"
	"testing"
)

// raceEnabled reports a race-detector build, whose allocations are
// not the product's.
var raceEnabled bool

// serializeReference is the fmt-based renderer Serialize replaced,
// kept as the oracle it must match byte for byte.
func serializeReference(p *Prog) string {
	var b strings.Builder
	for i, c := range p.Calls {
		if c.Sc.Ret != "" {
			fmt.Fprintf(&b, "r%d = ", i)
		}
		b.WriteString(c.Sc.Name)
		b.WriteByte('(')
		for j, a := range c.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			serializeValueReference(&b, a)
		}
		b.WriteString(")\n")
	}
	return b.String()
}

func serializeValueReference(b *strings.Builder, v *Value) {
	if v == nil {
		b.WriteString("nil")
		return
	}
	switch v.Type.Kind {
	case KindInt, KindConst, KindFlags, KindLen:
		fmt.Fprintf(b, "0x%x", v.Scalar)
	case KindResource:
		if v.ResultOf >= 0 {
			fmt.Fprintf(b, "r%d", v.ResultOf)
		} else {
			b.WriteString("0xffffffffffffffff")
		}
	case KindString:
		fmt.Fprintf(b, "%q", string(v.Data))
	case KindBuffer:
		fmt.Fprintf(b, "#%s#", hexBytes(v.Data))
	case KindPtr:
		if v.Ptr == nil {
			b.WriteString("0x0")
			return
		}
		b.WriteByte('&')
		serializeValueReference(b, v.Ptr)
	case KindStruct:
		b.WriteByte('{')
		for i, f := range v.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			serializeValueReference(b, f)
		}
		b.WriteByte('}')
	case KindUnion:
		fmt.Fprintf(b, "@%d{", v.UnionIdx)
		if len(v.Fields) > 0 {
			serializeValueReference(b, v.Fields[0])
		}
		b.WriteByte('}')
	case KindArray:
		b.WriteByte('[')
		if v.Type.isRun() {
			for i := range v.RunLen() {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(b, "0x%x", v.RunElem(i))
			}
			b.WriteByte(']')
			return
		}
		for i, f := range v.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			serializeValueReference(b, f)
		}
		b.WriteByte(']')
	default:
		b.WriteString("?")
	}
}

func hexBytes(data []byte) string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 0, len(data)*2)
	for _, c := range data {
		out = append(out, hexdigits[c>>4], hexdigits[c&0xf])
	}
	return string(out)
}

// FuzzSerializeMatchesReference checks Serialize against the fmt-based
// renderer on the programs a seed generates and mutates on the
// plumbed and value-shape targets (buffers, unions, arrays of structs,
// scalar runs), and on whatever program text parses on either.
func FuzzSerializeMatchesReference(f *testing.F) {
	targets := []*Target{plumbedTarget(f), shapeTarget(f)}
	for i, tgt := range targets {
		g := NewGen(tgt, 31)
		for j := 0; j < 8; j++ {
			f.Add(int64(i*8+j), uint8(j), g.Generate(2+j).Serialize())
		}
	}
	f.Add(int64(99), uint8(0), "write$shape(0xffffffffffffffff, #00ff7f#, 0x3)\n")
	f.Add(int64(98), uint8(1), "openat$dm(0xffffff9c, &\"\\x00\\xff\\u00e9\\\"\", 0x2, 0x0)\n")
	f.Fuzz(func(t *testing.T, seed int64, calls uint8, text string) {
		for _, tgt := range targets {
			g := NewGen(tgt, seed)
			p := g.Generate(1 + int(calls%16))
			checkSerialize(t, p)
			checkSerialize(t, mutateOnce(g, p, 8))
			if q, err := Deserialize(tgt, text); err == nil {
				checkSerialize(t, q)
			}
		}
	})
}

func checkSerialize(t *testing.T, p *Prog) {
	t.Helper()
	if got, want := p.Serialize(), serializeReference(p); got != want {
		t.Fatalf("Serialize differs from the reference:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSerializeAllocs is the renderer's budget: once its pooled buffer
// is warm, Serialize allocates the returned string and nothing else,
// for the deep target's large nested programs too.
func TestSerializeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	for _, tgt := range []*Target{deepTarget(t), plumbedTarget(t), shapeTarget(t)} {
		g := NewGen(tgt, 7)
		for i := 0; i < 8; i++ {
			p := g.Generate(2 + i).Detach()
			if n := testing.AllocsPerRun(20, func() { p.Serialize() }); n != 1 {
				t.Fatalf("Serialize of a %d-byte program allocates %.0f times, want 1", len(p.Serialize()), n)
			}
		}
	}
}
