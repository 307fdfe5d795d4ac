package vkernel

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// appendDeltaReference is the encoder AppendDelta replaced, kept as
// the oracle it must match byte for byte: it lists each container's
// values, counts their runs, and picks and writes the encoding from
// that list.
func appendDeltaReference(dst []byte, s, base *CoverSet) []byte {
	dst = append(dst, deltaMagic, deltaVersion)
	if s == nil {
		return binary.AppendUvarint(dst, 0)
	}
	type container struct {
		key   int
		words []uint64
	}
	var containers []container
	for start := 0; start < len(s.words); start += containerWords {
		end := min(start+containerWords, len(s.words))
		words := make([]uint64, end-start)
		nonEmpty := false
		for i := start; i < end; i++ {
			w := s.words[i]
			if base != nil && i < len(base.words) {
				w &^= base.words[i]
			}
			words[i-start] = w
			nonEmpty = nonEmpty || w != 0
		}
		if nonEmpty {
			containers = append(containers, container{start / containerWords, words})
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(containers)))
	for _, c := range containers {
		vals := containerValues(nil, c.words)
		runs := countRuns(vals)
		arrayBytes := 2 * len(vals)
		runBytes := 4 * runs
		dst = binary.AppendUvarint(dst, uint64(c.key))
		switch {
		case runBytes < arrayBytes && runBytes < bitmapBytes:
			dst = append(dst, containerRun)
			dst = binary.AppendUvarint(dst, uint64(runs))
			dst = appendRuns(dst, vals)
		case arrayBytes <= bitmapBytes:
			dst = append(dst, containerArray)
			dst = binary.AppendUvarint(dst, uint64(len(vals)))
			for _, v := range vals {
				dst = binary.LittleEndian.AppendUint16(dst, v)
			}
		default:
			dst = append(dst, containerBitmap)
			for i := 0; i < containerWords; i++ {
				var w uint64
				if i < len(c.words) {
					w = c.words[i]
				}
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
		}
	}
	return dst
}

// containerValues appends the low-16-bit values of the set words to
// dst in ascending order.
func containerValues(dst []uint16, words []uint64) []uint16 {
	for i, w := range words {
		base := uint16(i) << 6
		for w != 0 {
			dst = append(dst, base+uint16(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// countRuns counts maximal runs of consecutive values.
func countRuns(vals []uint16) int {
	runs := 0
	for i, v := range vals {
		if i == 0 || v != vals[i-1]+1 {
			runs++
		}
	}
	return runs
}

// appendRuns encodes sorted values as (start, length-1) uint16 pairs.
func appendRuns(dst []byte, vals []uint16) []byte {
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[j-1]+1 {
			j++
		}
		dst = binary.LittleEndian.AppendUint16(dst, vals[i])
		dst = binary.LittleEndian.AppendUint16(dst, uint16(j-i-1))
		i = j
	}
	return dst
}

// addRuns reads data as 3-byte (gap, length) records and adds, for
// each, a run of length+1 blocks starting gap blocks past the end of
// the previous run.
func addRuns(s *CoverSet, data []byte) {
	next := 0
	for ; len(data) >= 3; data = data[3:] {
		next += int(binary.LittleEndian.Uint16(data))
		n := int(data[2]) + 1
		for b := next; b < next+n; b++ {
			s.Add(BlockID(b))
		}
		next += n
	}
}

// randomCover fills s with one to four containers (keys below 24) of
// a random shape each: sparse singles, clustered runs, dense noise
// (the bitmap encoding), a full container, or runs whose ends fall on
// word and container edges.
func randomCover(s *CoverSet, r *rand.Rand) {
	for c := r.Intn(4) + 1; c > 0; c-- {
		base := r.Intn(24) << 16
		switch r.Intn(5) {
		case 0:
			for i := r.Intn(5000); i > 0; i-- {
				s.Add(BlockID(base + r.Intn(1<<16)))
			}
		case 1:
			for i := r.Intn(300); i > 0; i-- {
				start := r.Intn(1 << 16)
				for b := start; b < min(start+r.Intn(400)+1, 1<<16); b++ {
					s.Add(BlockID(base + b))
				}
			}
		case 2:
			for i := r.Intn(60000) + 4000; i > 0; i-- {
				s.Add(BlockID(base + r.Intn(1<<16)))
			}
		case 3:
			for b := 0; b < 1<<16; b++ {
				s.Add(BlockID(base + b))
			}
		case 4:
			for i := r.Intn(40); i > 0; i-- {
				start := r.Intn(1<<10) << 6
				n := 64*r.Intn(3) + r.Intn(3) - 1
				for b := max(start, 0); b < min(start+n, 1<<16); b++ {
					s.Add(BlockID(base + b))
				}
			}
		}
	}
}

// FuzzCoverDeltaMatchesReference checks AppendDelta against the
// materializing encoder it replaced: for a random set (seed and run
// records) and a base that overlaps it or not, the two must write the
// same bytes after the same prefix.
func FuzzCoverDeltaMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{}, []byte{})
	f.Add(int64(2), []byte{0, 0, 63, 1, 0, 0}, []byte{0, 0, 9})
	f.Add(int64(3), []byte{0xff, 0xff, 0xff, 0x40, 0, 1}, []byte{})
	f.Add(int64(8), []byte{5, 0, 0, 1, 0, 0, 1, 0, 0}, []byte{6, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, setRuns, baseRuns []byte) {
		r := rand.New(rand.NewSource(seed))
		s, base := &CoverSet{}, &CoverSet{}
		randomCover(s, r)
		addRuns(s, setRuns)
		addRuns(base, baseRuns)
		if seed%2 == 0 {
			// Half of the bases hold a random part of the set as well.
			s.ForEach(func(b BlockID) {
				if r.Intn(3) == 0 {
					base.Add(b)
				}
			})
		}
		for _, b := range []*CoverSet{nil, base} {
			prefix := []byte{0xaa, 0xbb}
			got := s.AppendDelta(prefix, b)
			want := appendDeltaReference(prefix, s, b)
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendDelta (%d bytes) differs from the reference (%d bytes)", len(got), len(want))
			}
		}
	})
}

// TestCoverDeltaEncodeAllocs is the encoder's budget: a 20k-block set
// that needs all three container encodings, appended into a buffer
// already large enough, allocates nothing.
func TestCoverDeltaEncodeAllocs(t *testing.T) {
	s, base := &CoverSet{}, &CoverSet{}
	r := rand.New(rand.NewSource(5))
	for b := BlockID(0); b < 6000; b++ { // run container
		s.Add(b)
	}
	for s.Count() < 14000 { // bitmap container
		s.Add(BlockID(1<<16 + r.Intn(1<<14)))
	}
	for s.Count() < 20000 { // array container
		s.Add(BlockID(2<<16 + r.Intn(1<<16)))
	}
	for b := BlockID(0); b < 2000; b += 3 {
		base.Add(b)
	}
	for _, b := range []*CoverSet{nil, base} {
		buf := make([]byte, 0, len(s.EncodeDelta(b)))
		if n := testing.AllocsPerRun(20, func() { buf = s.AppendDelta(buf[:0], b) }); n != 0 {
			t.Errorf("AppendDelta into a sized buffer allocates %.0f times, want 0", n)
		}
		if want := appendDeltaReference(nil, s, b); !bytes.Equal(buf, want) {
			t.Errorf("AppendDelta differs from the reference")
		}
	}
}
