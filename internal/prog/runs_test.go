package prog

import (
	"bytes"
	"runtime"
	"testing"
)

// lockstep draws n ints from fast through intValue and from slow
// through intValueSwitch, requiring the same value and the same outputs
// consumed at every draw and the same ring at the end.
func lockstep(t *testing.T, fast, slow *source, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if a, b := fast.intValue(), slow.intValueSwitch(); a != b {
			t.Fatalf("draw %d: intValue %#x, the switch %#x", i, a, b)
		}
		if fast.feed != slow.feed || fast.tap != slow.tap {
			t.Fatalf("draw %d: intValue left the ring at %d/%d, the switch at %d/%d", i, fast.feed, fast.tap, slow.feed, slow.tap)
		}
	}
	if fast.vec != slow.vec {
		t.Fatalf("after %d draws the rings differ", n)
	}
}

// plant returns a source whose next outputs carry the given Int31s (bits
// 32–62; the other bits are arbitrary), repeated to fill the ring.
func plant(int31s []uint32) *source {
	var y [srcLen]int64
	for i := range y {
		y[i] = int64(int31s[i%len(int31s)])<<32 | int64(i*2654435761)&0xffffffff
		if i%2 == 1 {
			y[i] = int64(uint64(y[i]) | 1<<63)
		}
	}
	s := new(source)
	s.start(&y)
	return s
}

// TestGenIntMatchesSwitch: the branch-free draw returns what the switch
// returns and consumes the same outputs — on planted outputs that reach
// each of the ten cases and both rejection paths (the case's intn10 and
// the shift's intn33), and on 5M draws from each of five seeds.
func TestGenIntMatchesSwitch(t *testing.T) {
	const top = 1<<31 - 1
	int31s := []uint32{
		6, 5, top, 3, // case 6 whose shift draw is rejected
		top, 2, 7, // a rejected case draw
		0, 1, 2, 4, 9, 5, 31, 8, 100, top - 2, 7, 12, top - 1, top - 8,
		top - 9, 10, 1 << 30, 3, 33, 64, 19, 26, 29, 45, 11,
		16, 27, 36, 47, 56, 67, 76, 87, 96, 106, 117,
	}
	fast, slow, probe := plant(int31s), plant(int31s), plant(int31s)
	cases := map[uint32]int{}
	rejected10, rejected33 := 0, 0
	for slow.feed < srcLen-8 {
		peek := *probe
		r0, _, r2 := peek.int31(), peek.int31(), peek.int31()
		switch {
		case r0 > 1<<31-1-(1<<31)%10:
			rejected10++
		case r0%10 >= 6 && r2 > 1<<31-1-(1<<31)%33:
			rejected33++
		default:
			cases[r0%10]++
		}
		lockstep(t, fast, slow, 1)
		probe.intValueSwitch()
	}
	if len(cases) != 10 || rejected10 == 0 || rejected33 == 0 {
		t.Fatalf("planted draws reached cases %v, %d rejected case draws, %d rejected shift draws: want all ten and both", cases, rejected10, rejected33)
	}
	for _, seed := range []int64{0, 1, 7, -5, 1 << 40} {
		lockstep(t, newSource(seed), newSource(seed), 5_000_000)
	}
}

// FuzzGenIntMatchesSwitch runs the same oracle from a seeded stream
// whose first three outputs carry the fuzzer's Int31s, so the rejection
// thresholds are one boundary value away.
func FuzzGenIntMatchesSwitch(f *testing.F) {
	const top = 1<<31 - 1
	f.Add(int64(1), uint32(6), uint32(5), uint32(top))
	f.Add(int64(2), uint32(top), uint32(2), uint32(7))
	f.Add(int64(3), uint32(top-8), uint32(5), uint32(top-2))
	f.Fuzz(func(t *testing.T, seed int64, r0, r1, r2 uint32) {
		r := newSource(seed)
		var y [srcLen]int64
		for i := range y {
			y[i] = int64(r.Uint64())
		}
		for i, v := range []uint32{r0, r1, r2} {
			y[i] = y[i]&^(top<<32) | int64(v&top)<<32
		}
		fast, slow := new(source), new(source)
		fast.start(&y)
		slow.start(&y)
		lockstep(t, fast, slow, 200)
	})
}

// elementNodes is the array v's elements as values: its Fields, or, for
// a run, one node per element.
func elementNodes(v *Value) []*Value {
	if !v.Type.isRun() {
		return v.Fields
	}
	out := make([]*Value, v.RunLen())
	for i := range out {
		out[i] = &Value{Type: v.Type.Elem, Scalar: v.RunElem(i), ResultOf: -1}
	}
	return out
}

// nodeTree deep-copies v with every run laid out as one node per
// element. The run's copy gets an array type whose element is a KindFlags
// type of the int's width and no values: every walk treats such an
// element as the int it holds, but the array is not a run, so the copy
// takes the per-element paths that runs replaced. types caches the
// substitutes, so every copy of a run type shares one.
func nodeTree(v *Value, types map[*Type]*Type) *Value {
	if v == nil {
		return nil
	}
	c := *v
	c.Ptr = nodeTree(v.Ptr, types)
	c.Fields = nil
	for _, f := range v.Fields {
		c.Fields = append(c.Fields, nodeTree(f, types))
	}
	if v.Type.isRun() {
		ty := types[v.Type]
		if ty == nil {
			elem := *v.Type.Elem
			elem.Kind = KindFlags
			arr := *v.Type
			arr.Elem = &elem
			ty = &arr
			types[v.Type] = ty
		}
		c.Type, c.Data = ty, nil
		for _, e := range elementNodes(v) {
			e.Type = ty.Elem
			c.Fields = append(c.Fields, e)
		}
	}
	return &c
}

// zeroLens sets every len value under the call to 0.
func zeroLens(c *Call) {
	c.ForEachValue(func(v *Value) {
		if v.Type.Kind == KindLen {
			v.Scalar = 0
		}
	})
}

// TestRunsMatchNodes: a program with packed runs encodes, sizes,
// serializes and fixes up its lens exactly as the same program with one
// node per element does, over 2 000 generated and mutated programs on
// the deep and the plumbed target.
func TestRunsMatchNodes(t *testing.T) {
	runs := 0
	for _, bt := range benchTargets {
		tgt := bt.tgt(t)
		seeds := benchSeeds(tgt)
		g := NewGen(tgt, 4)
		ctx := &MutateCtx{MaxCalls: 8, Donor: func() *Prog { return seeds[g.R.Intn(len(seeds))] }}
		ops := DefaultOperators()
		types := map[*Type]*Type{}
		for i := 0; i < 1000; i++ {
			p := g.Generate(8)
			if i%2 == 1 {
				p, _ = g.MutateOp(seeds[i%len(seeds)], ops[i%len(ops)], ctx)
			}
			packed, nodes := p.Clone(), &Prog{}
			for _, c := range p.Calls {
				nc := &Call{Sc: c.Sc}
				for _, a := range c.Args {
					nc.Args = append(nc.Args, nodeTree(a, types))
				}
				nodes.Calls = append(nodes.Calls, nc)
				c.ForEachValue(func(v *Value) {
					if v.Type.isRun() {
						runs++
					}
				})
			}
			text := packed.Serialize()
			if got := nodes.Serialize(); got != text {
				t.Fatalf("%s program %d: one node per element serializes to\n%s\nthe packed program to\n%s", bt.name, i, got, text)
			}
			for ci, c := range packed.Calls {
				for ai, a := range c.Args {
					b := nodes.Calls[ci].Args[ai]
					if enc := a.Encode(); !bytes.Equal(enc, b.Encode()) || a.encodedSize() != len(enc) || b.encodedSize() != len(enc) {
						t.Fatalf("%s program %d call %d arg %d: packed %x (size %d), nodes %x (size %d)",
							bt.name, i, ci, ai, enc, a.encodedSize(), b.Encode(), b.encodedSize())
					}
				}
				zeroLens(c)
				zeroLens(nodes.Calls[ci])
				c.FixupLens()
				nodes.Calls[ci].FixupLens()
			}
			if a, b := packed.Serialize(), nodes.Serialize(); a != text || b != text {
				t.Fatalf("%s program %d: FixupLens gives\n%s\nwith runs, and\n%s\nwith nodes, from\n%s", bt.name, i, a, b, text)
			}
		}
	}
	if runs == 0 {
		t.Fatal("no program held a run")
	}
}

// TestRunsAllocateNoElementNodes: generating a dm_ioctl — whose name and
// uuid are runs of 128 and 129 int8s — takes one arena node per value
// the program holds and none per run element.
func TestRunsAllocateNoElementNodes(t *testing.T) {
	g := NewGen(deepTarget(t), 12)
	g.Enabled = map[string]bool{"openat$dm": true, "ioctl$DM_DEV_CREATE": true}
	withRuns := 0
	for i := 0; i < 40; i++ {
		p := g.Generate(3)
		values, elems := 0, 0
		for _, c := range p.Calls {
			c.ForEachValue(func(v *Value) {
				values++
				if v.Type.isRun() {
					elems += v.RunLen()
				}
			})
		}
		nodes := len(g.a.nodes.cur)
		for _, chunk := range g.a.nodes.rest[:g.a.nodes.next] {
			nodes += len(chunk)
		}
		if nodes != values {
			t.Fatalf("program %d: %d arena nodes for %d values (%d run elements)", i, nodes, values, elems)
		}
		if elems >= 257 {
			withRuns++
		}
	}
	if withRuns < 10 {
		t.Fatalf("%d of 40 programs held a dm_ioctl's 257 run elements, want 10 at least", withRuns)
	}
}

// TestCloneBytes: a Clone of a deep seed copies at most 16 KB on
// average (one node per element made it ~85 KB).
func TestCloneBytes(t *testing.T) {
	seeds := benchSeeds(deepTarget(t))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 8
	for r := 0; r < rounds; r++ {
		for _, s := range seeds {
			benchSink = s.Clone()
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / (rounds * uint64(len(seeds))); per > 16<<10 {
		t.Fatalf("a Clone of a deep seed allocates %d bytes, want <= 16 KB", per)
	} else {
		t.Logf("a Clone of a deep seed allocates %d bytes", per)
	}
}
