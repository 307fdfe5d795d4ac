package vkernel

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// decodeBlocks materializes a decoded delta as a sorted slice.
func decodeBlocks(data []byte) ([]BlockID, error) {
	var out []BlockID
	err := DecodeDelta(data, func(b BlockID) { out = append(out, b) })
	return out, err
}

// deltaRoundTrip encodes s \ base and decodes it back, failing the
// test on any mismatch. Returns the encoded bytes.
func deltaRoundTrip(t *testing.T, s, base *CoverSet) []byte {
	t.Helper()
	enc := s.EncodeDelta(base)
	got, err := decodeBlocks(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	inBase := map[BlockID]bool{}
	base.ForEach(func(b BlockID) { inBase[b] = true })
	want := []BlockID{}
	s.ForEach(func(b BlockID) {
		if !inBase[b] {
			want = append(want, b)
		}
	})
	if len(got) != len(want) {
		t.Fatalf("round trip: %d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round trip: block[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Canonical: re-encoding the decoded set reproduces the bytes.
	re := &CoverSet{}
	for _, b := range got {
		re.Add(b)
	}
	if enc2 := re.EncodeDelta(nil); !bytes.Equal(enc, enc2) && base.Count() == 0 {
		t.Fatalf("encoding not canonical: %x vs %x", enc, enc2)
	}
	return enc
}

func TestCoverDeltaEmpty(t *testing.T) {
	enc := (&CoverSet{}).EncodeDelta(nil)
	blocks, err := decodeBlocks(enc)
	if err != nil || len(blocks) != 0 {
		t.Fatalf("empty delta: %v blocks, err %v", blocks, err)
	}
	var nilSet *CoverSet
	if !bytes.Equal(nilSet.EncodeDelta(nil), enc) {
		t.Fatal("nil set encodes differently from empty set")
	}
}

func TestCoverDeltaShapes(t *testing.T) {
	shapes := map[string]func(s *CoverSet){
		"sparse": func(s *CoverSet) { // array container
			for _, b := range []BlockID{1, 7, 100, 65000} {
				s.Add(b)
			}
		},
		"clustered": func(s *CoverSet) { // run container
			for b := BlockID(100); b < 900; b++ {
				s.Add(b)
			}
			for b := BlockID(2000); b < 2500; b++ {
				s.Add(b)
			}
		},
		"dense-scattered": func(s *CoverSet) { // bitmap container
			for b := BlockID(0); b < 1<<16; b += 2 {
				s.Add(b)
			}
		},
		"multi-container": func(s *CoverSet) {
			for _, b := range []BlockID{5, 1 << 16, 1<<16 + 1, 3 << 16, 1 << 20} {
				s.Add(b)
			}
		},
		"full-container": func(s *CoverSet) { // one maximal run
			for b := BlockID(0); b < 1<<16; b++ {
				s.Add(b)
			}
		},
	}
	for name, fill := range shapes {
		t.Run(name, func(t *testing.T) {
			s := &CoverSet{}
			fill(s)
			deltaRoundTrip(t, s, &CoverSet{})
		})
	}
}

func TestCoverDeltaAgainstBase(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	base := NewCoverSet(1 << 14)
	s := NewCoverSet(1 << 14)
	for i := 0; i < 4000; i++ {
		b := BlockID(r.Intn(1 << 14))
		base.Add(b)
		s.Add(b)
	}
	for i := 0; i < 300; i++ {
		s.Add(BlockID(r.Intn(1 << 14)))
	}
	enc := deltaRoundTrip(t, s, base)
	full := s.EncodeDelta(nil)
	if len(enc) >= len(full) {
		t.Fatalf("delta (%dB) not smaller than full encoding (%dB)", len(enc), len(full))
	}
	// Applying the delta to a clone of base reconstructs s.
	merged := base.Clone()
	if _, err := merged.ApplyDelta(enc); err != nil {
		t.Fatal(err)
	}
	if !merged.Equal(s) {
		t.Fatal("base + delta != full set")
	}
}

func TestCoverDeltaCompression(t *testing.T) {
	// A contiguous handler-style block range must compress far below
	// its JSON array form (~6 bytes per block ID).
	s := &CoverSet{}
	for b := BlockID(100); b < 1100; b++ {
		s.Add(b)
	}
	enc := s.EncodeDelta(nil)
	if len(enc) > 64 {
		t.Fatalf("1000-block run encoded to %d bytes, want run-length compression", len(enc))
	}
}

func TestCoverDeltaRejectsMalformed(t *testing.T) {
	s := &CoverSet{}
	for _, b := range []BlockID{1, 2, 3, 900} {
		s.Add(b)
	}
	enc := s.EncodeDelta(nil)
	cases := map[string][]byte{
		"empty":       {},
		"bad-magic":   append([]byte{0x00}, enc[1:]...),
		"bad-version": append([]byte{deltaMagic, 0x7F}, enc[2:]...),
		"truncated":   enc[:len(enc)-1],
		"trailing":    append(append([]byte{}, enc...), 0x00),
	}
	for name, data := range cases {
		if _, err := decodeBlocks(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

// TestCoverDeltaRefusesBlocksPastBound: the last block below maxBlocks
// decodes; a container one key further, or at the top of the 32-bit
// space, is refused before any block of it is applied.
func TestCoverDeltaRefusesBlocksPastBound(t *testing.T) {
	s := &CoverSet{}
	s.Add(maxBlocks - 1)
	enc := s.EncodeDelta(nil)
	if got, err := decodeBlocks(enc); err != nil || len(got) != 1 || got[0] != maxBlocks-1 {
		t.Fatalf("block %d decodes as %v, %v", maxBlocks-1, got, err)
	}
	// enc is magic, version, one container, then its one-byte key.
	lastKey := byte(maxBlocks>>16 - 1)
	if enc[3] != lastKey {
		t.Fatalf("unexpected encoding %x", enc)
	}
	for _, key := range [][]byte{binary.AppendUvarint(nil, maxBlocks>>16), binary.AppendUvarint(nil, 1<<16-1)} {
		data := append(append(append([]byte{}, enc[:3]...), key...), enc[4:]...)
		var n int
		if err := DecodeDelta(data, func(BlockID) { n++ }); err == nil || n != 0 {
			t.Errorf("container key %x decoded %d blocks, err %v", key, n, err)
		}
	}
}

// FuzzCoverDeltaRoundTrip is the codec's native fuzz target: any
// input that decodes must re-encode to the identical bytes (the
// canonical-form invariant), and the decoded blocks must be strictly
// ascending.
func FuzzCoverDeltaRoundTrip(f *testing.F) {
	seed := &CoverSet{}
	for _, b := range []BlockID{0, 1, 5, 64, 70000, 1 << 20} {
		seed.Add(b)
	}
	f.Add(seed.EncodeDelta(nil))
	run := &CoverSet{}
	for b := BlockID(0); b < 2000; b++ {
		run.Add(b)
	}
	f.Add(run.EncodeDelta(nil))
	f.Add([]byte{deltaMagic, deltaVersion, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		var blocks []BlockID
		prev := -1
		err := DecodeDelta(data, func(b BlockID) {
			if int(b) <= prev {
				t.Fatalf("decoded blocks not ascending: %d after %d", b, prev)
			}
			prev = int(b)
			blocks = append(blocks, b)
		})
		if err != nil {
			return
		}
		s := &CoverSet{}
		for _, b := range blocks {
			s.Add(b)
		}
		if re := s.EncodeDelta(nil); !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical input: %x re-encodes to %x", data, re)
		}
	})
}
