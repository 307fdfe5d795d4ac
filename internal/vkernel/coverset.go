package vkernel

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// CoverSet is a dense bitmap over basic-block IDs. Because the kernel
// numbers blocks contiguously from zero, a bitmap of NumBlocks bits
// replaces the per-program hash sets the fuzzer used to allocate:
// Add/Has are one word operation each, Union is a word-wise OR, and
// the population count is cached so Count is O(1). The zero value is
// an empty set that grows on demand; NewCoverSet pre-sizes the bitmap
// so the hot path never reallocates.
//
// CoverSet is not safe for concurrent mutation; the fuzzer gives each
// campaign goroutine its own set and merges under a lock.
type CoverSet struct {
	words []uint64
	n     int
}

// maxBlocks bounds the block-ID space. The kernel numbers no more
// blocks (the widest suite numbers about 24k) and DecodeDelta refuses
// a container past it, so no set a peer sends can grow a bitmap beyond
// 2 MB.
const maxBlocks = 1 << 24

// NewCoverSet returns an empty set pre-sized for block IDs in
// [0, bound).
func NewCoverSet(bound uint32) *CoverSet {
	return &CoverSet{words: make([]uint64, (int(bound)+63)/64)}
}

// grow ensures the bitmap covers word index w, at least doubling so
// grow-on-demand sets stay amortized O(1) per Add.
func (s *CoverSet) grow(w int) {
	if w < len(s.words) {
		return
	}
	words := make([]uint64, max(w+1, 2*len(s.words)))
	copy(words, s.words)
	s.words = words
}

// Add inserts block b and reports whether it was newly covered.
func (s *CoverSet) Add(b BlockID) bool {
	w, bit := int(b>>6), uint64(1)<<(b&63)
	s.grow(w)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	s.n++
	return true
}

// Count returns the number of covered blocks in O(1).
func (s *CoverSet) Count() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Union folds o into s and returns the number of newly covered
// blocks.
func (s *CoverSet) Union(o *CoverSet) int {
	if o == nil {
		return 0
	}
	if len(o.words) > 0 {
		s.grow(len(o.words) - 1)
	}
	added := 0
	for i, w := range o.words {
		if nw := w &^ s.words[i]; nw != 0 {
			s.words[i] |= nw
			added += bits.OnesCount64(nw)
		}
	}
	s.n += added
	return added
}

// Diff returns the number of blocks covered by s but not by o
// (the evaluation's "unique coverage" metric).
func (s *CoverSet) Diff(o *CoverSet) int {
	if s == nil {
		return 0
	}
	n := 0
	for i, w := range s.words {
		if o != nil && i < len(o.words) {
			w &^= o.words[i]
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear empties the set, retaining its capacity for reuse.
func (s *CoverSet) Clear() {
	clear(s.words)
	s.n = 0
}

// Clone returns an independent copy of the set.
func (s *CoverSet) Clone() *CoverSet {
	if s == nil {
		return &CoverSet{}
	}
	return &CoverSet{words: append([]uint64(nil), s.words...), n: s.n}
}

// Equal reports whether two sets cover exactly the same blocks.
func (s *CoverSet) Equal(o *CoverSet) bool {
	if s.Count() != o.Count() {
		return false
	}
	if s == nil || o == nil {
		return true // counts matched, so both are empty
	}
	long, short := s, o
	if len(o.words) > len(s.words) {
		long, short = o, s
	}
	for i, w := range long.words {
		var ow uint64
		if i < len(short.words) {
			ow = short.words[i]
		}
		if w != ow {
			return false
		}
	}
	return true
}

// Blocks returns the covered blocks as a sorted slice — the set's
// sorted iterator, materialized. Bitmap order is ID order, so no
// sorting pass is needed.
func (s *CoverSet) Blocks() []BlockID {
	if s == nil {
		return nil
	}
	out := make([]BlockID, 0, s.n)
	s.ForEach(func(b BlockID) { out = append(out, b) })
	return out
}

// AppendBlocks appends the covered blocks to dst in ascending ID
// order and returns the extended slice — the allocation-free form of
// Blocks for callers that recycle a buffer.
func (s *CoverSet) AppendBlocks(dst []BlockID) []BlockID {
	if s == nil {
		return dst
	}
	for i, w := range s.words {
		base := BlockID(i) << 6
		for w != 0 {
			dst = append(dst, base+BlockID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// ForEach visits every covered block in ascending ID order.
func (s *CoverSet) ForEach(fn func(BlockID)) {
	if s == nil {
		return
	}
	for i, w := range s.words {
		base := BlockID(i) << 6
		for w != 0 {
			fn(base + BlockID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// Compressed delta codec
//
// EncodeDelta/DecodeDelta serialize the set difference s \ base as a
// roaring-style container stream: block IDs are partitioned by their
// high 16 bits into containers of up to 65536 values, and each
// container independently picks the smallest of three encodings —
// a sorted uint16 array (sparse), run-length [start, length] pairs
// (clustered, the common shape for contiguous handler block ranges),
// or a raw 8 KiB bitmap (dense). The encoding is canonical: a given
// block set always encodes to the same bytes, and DecodeDelta rejects
// non-canonical input (out-of-order values, wrong container choice,
// overlapping runs), so encode∘decode is the identity both ways.
// This is the hub sync path's cover-delta wire format.

// Delta codec framing constants.
const (
	deltaMagic   = 0xC5 // "CoverSet" stream marker
	deltaVersion = 0x01

	containerArray  = 0x00
	containerRun    = 0x01
	containerBitmap = 0x02

	// containerWords is the bitmap words per container (2^16 bits).
	containerWords = 1 << 10
	// bitmapBytes is the raw-bitmap container payload size.
	bitmapBytes = containerWords * 8
)

// EncodeDelta returns the canonical encoding of s \ base (blocks
// covered by s but not by base). A nil base encodes the whole set.
func (s *CoverSet) EncodeDelta(base *CoverSet) []byte {
	return s.AppendDelta(nil, base)
}

// AppendDelta appends the canonical encoding of s \ base to dst and
// returns the extended slice (the allocation-free form of
// EncodeDelta for callers that recycle a buffer). Each container's
// encoding is chosen from its words' population and run counts and
// written straight from the words: no container is materialized as a
// value list.
func (s *CoverSet) AppendDelta(dst []byte, base *CoverSet) []byte {
	dst = append(dst, deltaMagic, deltaVersion)
	if s == nil {
		return binary.AppendUvarint(dst, 0)
	}
	// First pass: count non-empty containers (no materialization).
	containers := 0
	for start := 0; start < len(s.words); start += containerWords {
		end := min(start+containerWords, len(s.words))
		for i := start; i < end; i++ {
			if diffWord(s, base, i) != 0 {
				containers++
				break
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(containers))
	var words [containerWords]uint64
	for start := 0; start < len(s.words); start += containerWords {
		n := min(containerWords, len(s.words)-start)
		count, runs := 0, 0
		var prev uint64
		for i := 0; i < n; i++ {
			w := diffWord(s, base, start+i)
			words[i] = w
			count += bits.OnesCount64(w)
			// A run starts at every set bit whose predecessor (the
			// previous word's top bit, for bit 0) is clear.
			runs += bits.OnesCount64(w &^ (w<<1 | prev>>63))
			prev = w
		}
		if count == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(start/containerWords))
		arrayBytes, runBytes := 2*count, 4*runs
		switch {
		case runBytes < arrayBytes && runBytes < bitmapBytes:
			dst = append(dst, containerRun)
			dst = binary.AppendUvarint(dst, uint64(runs))
			dst = appendRunPairs(dst, words[:n])
		case arrayBytes <= bitmapBytes:
			dst = append(dst, containerArray)
			dst = binary.AppendUvarint(dst, uint64(count))
			dst = appendArrayValues(dst, words[:n])
		default:
			dst = append(dst, containerBitmap)
			for _, w := range words[:n] {
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
			for i := n; i < containerWords; i++ {
				dst = binary.LittleEndian.AppendUint64(dst, 0)
			}
		}
	}
	return dst
}

// diffWord is word i of s \ base.
func diffWord(s, base *CoverSet, i int) uint64 {
	w := s.words[i]
	if base != nil && i < len(base.words) {
		w &^= base.words[i]
	}
	return w
}

// appendArrayValues appends the position of every set bit of a
// container's words as a little-endian uint16, in ascending order.
func appendArrayValues(dst []byte, words []uint64) []byte {
	for i, w := range words {
		base := uint16(i) << 6
		for w != 0 {
			dst = binary.LittleEndian.AppendUint16(dst, base+uint16(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// appendRunPairs appends every maximal run of set bits of a
// container's words as a (start, length-1) little-endian uint16 pair.
func appendRunPairs(dst []byte, words []uint64) []byte {
	start := -1 // position of the open run's first bit, -1 between runs
	for i, w := range words {
		for pos := 0; pos < 64; {
			if start < 0 {
				rest := w >> pos
				if rest == 0 {
					break
				}
				pos += bits.TrailingZeros64(rest)
				start = i<<6 + pos
				continue
			}
			rest := ^w >> pos
			if rest == 0 {
				break // the run goes on into the next word
			}
			pos += bits.TrailingZeros64(rest)
			dst = appendRun(dst, start, i<<6+pos)
			start = -1
		}
	}
	if start >= 0 {
		dst = appendRun(dst, start, len(words)<<6)
	}
	return dst
}

// appendRun appends the run [start, end) as a (start, length-1) pair.
func appendRun(dst []byte, start, end int) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(start))
	return binary.LittleEndian.AppendUint16(dst, uint16(end-start-1))
}

// strictUvarint decodes a uvarint, rejecting non-minimal encodings
// (an over-long encoding would decode fine but re-encode shorter,
// breaking the canonical-form invariant).
func strictUvarint(data []byte) (uint64, int) {
	v, n := binary.Uvarint(data)
	if n > 1 && data[n-1] == 0 {
		return 0, 0 // top byte contributes nothing: not minimal
	}
	return v, n
}

// DecodeDelta parses an EncodeDelta stream, invoking fn for every
// encoded block in ascending ID order. It rejects malformed and
// non-canonical input, so a successful decode re-encodes to exactly
// the input bytes, and blocks at or past maxBlocks.
func DecodeDelta(data []byte, fn func(BlockID)) error {
	if len(data) < 2 || data[0] != deltaMagic || data[1] != deltaVersion {
		return fmt.Errorf("coverset delta: bad header")
	}
	data = data[2:]
	containers, n := strictUvarint(data)
	if n <= 0 {
		return fmt.Errorf("coverset delta: bad container count")
	}
	data = data[n:]
	prevKey := -1
	for c := uint64(0); c < containers; c++ {
		key, n := strictUvarint(data)
		if n <= 0 || key >= maxBlocks>>16 {
			return fmt.Errorf("coverset delta: bad container key")
		}
		data = data[n:]
		if int(key) <= prevKey {
			return fmt.Errorf("coverset delta: container keys not ascending")
		}
		prevKey = int(key)
		if len(data) < 1 {
			return fmt.Errorf("coverset delta: truncated container")
		}
		typ := data[0]
		data = data[1:]
		base := BlockID(key) << 16
		switch typ {
		case containerArray:
			count, n := strictUvarint(data)
			if n <= 0 || count == 0 || count > 1<<16 || len(data[n:]) < int(count)*2 {
				return fmt.Errorf("coverset delta: bad array container")
			}
			data = data[n:]
			if 2*int(count) > bitmapBytes {
				return fmt.Errorf("coverset delta: array container larger than bitmap")
			}
			prev, runs := -1, 0
			for i := uint64(0); i < count; i++ {
				v := int(binary.LittleEndian.Uint16(data[2*i:]))
				if v <= prev {
					return fmt.Errorf("coverset delta: array values not ascending")
				}
				if v != prev+1 || i == 0 {
					runs++
				}
				prev = v
				fn(base + BlockID(v))
			}
			if 4*runs < 2*int(count) {
				return fmt.Errorf("coverset delta: array container should be run-encoded")
			}
			data = data[2*count:]
		case containerRun:
			runs, n := strictUvarint(data)
			if n <= 0 || runs == 0 || runs > 1<<15 || len(data[n:]) < int(runs)*4 {
				return fmt.Errorf("coverset delta: bad run container")
			}
			data = data[n:]
			count := 0
			prevEnd := -2
			for i := uint64(0); i < runs; i++ {
				start := int(binary.LittleEndian.Uint16(data[4*i:]))
				length := int(binary.LittleEndian.Uint16(data[4*i+2:])) + 1
				if start <= prevEnd+1 {
					return fmt.Errorf("coverset delta: runs not canonical")
				}
				if start+length > 1<<16 {
					return fmt.Errorf("coverset delta: run overflows container")
				}
				for v := start; v < start+length; v++ {
					fn(base + BlockID(v))
				}
				count += length
				prevEnd = start + length - 1
			}
			if 4*int(runs) >= 2*count || 4*int(runs) >= bitmapBytes {
				return fmt.Errorf("coverset delta: run container should be array- or bitmap-encoded")
			}
			data = data[4*runs:]
		case containerBitmap:
			if len(data) < bitmapBytes {
				return fmt.Errorf("coverset delta: truncated bitmap container")
			}
			count, runs := 0, 0
			prev := -2
			for i := 0; i < containerWords; i++ {
				w := binary.LittleEndian.Uint64(data[8*i:])
				wbase := i << 6
				for w != 0 {
					v := wbase + bits.TrailingZeros64(w)
					if v != prev+1 {
						runs++
					}
					prev = v
					count++
					fn(base + BlockID(v))
					w &= w - 1
				}
			}
			if count == 0 {
				return fmt.Errorf("coverset delta: empty bitmap container")
			}
			if 2*count <= bitmapBytes || 4*runs < bitmapBytes {
				return fmt.Errorf("coverset delta: bitmap container should be array- or run-encoded")
			}
			data = data[bitmapBytes:]
		default:
			return fmt.Errorf("coverset delta: unknown container type %#x", typ)
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("coverset delta: %d trailing bytes", len(data))
	}
	return nil
}

// ApplyDelta decodes data into s, returning the number of newly
// covered blocks.
func (s *CoverSet) ApplyDelta(data []byte) (int, error) {
	added := 0
	err := DecodeDelta(data, func(b BlockID) {
		if s.Add(b) {
			added++
		}
	})
	return added, err
}
