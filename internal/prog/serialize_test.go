package prog

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSerializeRoundTrip(t *testing.T) {
	tgt := testTarget(t)
	g := NewGen(tgt, 21)
	for i := 0; i < 100; i++ {
		p := g.Generate(6)
		text := p.Serialize()
		q, err := Deserialize(tgt, text)
		if err != nil {
			t.Fatalf("deserialize failed: %v\n%s", err, text)
		}
		if q.Serialize() != text {
			t.Fatalf("round trip differs:\n--- a\n%s\n--- b\n%s", text, q.Serialize())
		}
	}
}

func TestSerializeEncodingEquivalence(t *testing.T) {
	// The deserialized program must encode to the same bytes (the
	// repro must behave identically in the kernel).
	tgt := testTarget(t)
	g := NewGen(tgt, 22)
	for i := 0; i < 50; i++ {
		p := g.Generate(6)
		q, err := Deserialize(tgt, p.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Calls) != len(p.Calls) {
			t.Fatal("call count changed")
		}
		for ci := range p.Calls {
			for ai := range p.Calls[ci].Args {
				a, b := p.Calls[ci].Args[ai], q.Calls[ci].Args[ai]
				if a.Type.Kind == KindPtr && a.Ptr != nil {
					if string(a.Ptr.Encode()) != string(b.Ptr.Encode()) {
						t.Fatalf("payload bytes differ for call %d arg %d", ci, ai)
					}
				}
			}
		}
	}
}

func TestDeserializeRejectsUnknownSyscall(t *testing.T) {
	tgt := testTarget(t)
	if _, err := Deserialize(tgt, "frob$x(0x1)\n"); err == nil {
		t.Fatal("unknown syscall accepted")
	}
}

// TestDeserializeRejectsOutOfRangeReferences: rN with N >= the number
// of earlier calls (forward or self references) must be rejected at
// parse time, with the offending line number in the error — not
// deferred to a lineless Validate failure.
func TestDeserializeRejectsOutOfRangeReferences(t *testing.T) {
	tgt := testTarget(t)
	cases := []struct {
		name, text, wantLine string
	}{
		{
			name:     "forward ref in first call",
			text:     "ioctl$SET_CFG(r5, 0x7002, 0x0)\n",
			wantLine: "line 1",
		},
		{
			name: "forward ref in later call",
			text: "r0 = openat$dev(0xffffff9c, &\"/dev/testdev\", 0x2, 0x0)\n" +
				"ioctl$SET_CFG(r2, 0x7002, 0x0)\n",
			wantLine: "line 2",
		},
		{
			name: "self ref",
			text: "r0 = openat$dev(0xffffff9c, &\"/dev/testdev\", 0x2, 0x0)\n" +
				"ioctl$SET_CFG(r1, 0x7002, 0x0)\n",
			wantLine: "line 2",
		},
		{
			name:     "negative-style ref",
			text:     "ioctl$SET_CFG(r-1, 0x7002, 0x0)\n",
			wantLine: "line 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Deserialize(tgt, tc.text)
			if err == nil {
				t.Fatalf("accepted:\n%s", tc.text)
			}
			if !strings.Contains(err.Error(), tc.wantLine) {
				t.Fatalf("error %q does not name %s", err, tc.wantLine)
			}
		})
	}
}

func TestDeserializeComments(t *testing.T) {
	tgt := testTarget(t)
	text := `# repro for test
r0 = openat$dev(0xffffff9c, &"/dev/testdev", 0x2, 0x0)

ioctl$MAKE_SUB(r0, 0x7001)
`
	p, err := Deserialize(tgt, text)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Calls) != 2 {
		t.Fatalf("want 2 calls, got %d", len(p.Calls))
	}
}

func TestDeserializeBadFdSentinel(t *testing.T) {
	tgt := testTarget(t)
	text := "ioctl$MAKE_SUB(0xffffffffffffffff, 0x7001)\n"
	p, err := Deserialize(tgt, text)
	if err != nil {
		t.Fatal(err)
	}
	if p.Calls[0].Args[0].ResultOf != -1 {
		t.Fatal("bad-fd sentinel not preserved")
	}
}

func TestQuickSerializeRoundTrip(t *testing.T) {
	tgt := testTarget(t)
	f := func(seed int64) bool {
		g := NewGen(tgt, seed)
		p := g.Generate(5)
		for i := 0; i < 3; i++ {
			p = mutateOnce(g, p, 6)
		}
		q, err := Deserialize(tgt, p.Serialize())
		return err == nil && q.Serialize() == p.Serialize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeMarksResults(t *testing.T) {
	tgt := testTarget(t)
	g := NewGen(tgt, 23)
	g.Enabled = map[string]bool{"openat$dev": true, "ioctl$SET_CFG": true}
	for i := 0; i < 50; i++ {
		p := g.Generate(4)
		text := p.Serialize()
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "r") && !strings.Contains(line, " = ") {
				t.Fatalf("malformed result line: %q", line)
			}
		}
	}
}

// TestDeserializeRejectsFixedArrayCount: a fixed-length array with one
// element too few or too many (a hand-edited dm_ioctl.name of 127 or
// 129 int8s) is rejected with its line number, where it used to lower
// to a payload with every later field at the wrong offset.
func TestDeserializeRejectsFixedArrayCount(t *testing.T) {
	tgt := deepTarget(t)
	g := NewGen(tgt, 2)
	for i := 0; i < 100; i++ {
		p := g.Generate(4).Detach()
		for ci, c := range p.Calls {
			var name *Value
			c.ForEachValue(func(v *Value) {
				if v.Type.isRun() && v.Type.FixedLen == 128 && name == nil {
					name = v
				}
			})
			if name == nil {
				continue
			}
			if _, err := Deserialize(tgt, p.Serialize()); err != nil {
				t.Fatalf("a generated program does not parse: %v", err)
			}
			wantLine := "line " + itoa(ci+1) + ":"
			full := name.Data
			for _, data := range [][]byte{full[:127*8], append(full[:128*8:128*8], make([]byte, 8)...)} {
				name.Data = data
				_, err := Deserialize(tgt, p.Serialize())
				if err == nil || !strings.Contains(err.Error(), wantLine) || !strings.Contains(err.Error(), "want 128") {
					t.Fatalf("a %d-element name parsed with error %v, want one naming %q and 128 elements", name.RunLen(), err, wantLine)
				}
			}
			return
		}
	}
	t.Fatal("no generated program held a dm_ioctl")
}
