package vkernel

import (
	"math/rand"
	"sort"
	"testing"
)

// checkBlocks fails the test unless s holds exactly want, ascending.
func checkBlocks(t *testing.T, s *CoverSet, want ...BlockID) {
	t.Helper()
	got := s.Blocks()
	if len(got) != len(want) {
		t.Fatalf("blocks %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("blocks %v, want %v", got, want)
		}
	}
}

func TestCoverSetAddCount(t *testing.T) {
	s := NewCoverSet(256)
	if s.Count() != 0 || len(s.Blocks()) != 0 {
		t.Fatal("new set not empty")
	}
	blocks := []BlockID{0, 63, 64, 65, 200}
	for _, b := range blocks {
		if !s.Add(b) {
			t.Fatalf("Add(%d) not new", b)
		}
		if s.Add(b) {
			t.Fatalf("Add(%d) twice reported new", b)
		}
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d, want 5", s.Count())
	}
	checkBlocks(t, s, blocks...)
}

func TestCoverSetGrowsBeyondBound(t *testing.T) {
	s := NewCoverSet(8)
	if !s.Add(1000) {
		t.Fatal("set did not grow past its initial bound")
	}
	checkBlocks(t, s, 1000)
	var zero CoverSet
	if !zero.Add(77) || zero.Count() != 1 {
		t.Fatal("zero-value set unusable")
	}
}

func TestCoverSetBlocksSorted(t *testing.T) {
	s := NewCoverSet(512)
	want := []BlockID{3, 64, 65, 127, 128, 300, 511}
	for i := len(want) - 1; i >= 0; i-- {
		s.Add(want[i])
	}
	got := s.Blocks()
	if len(got) != len(want) {
		t.Fatalf("Blocks len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Blocks[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
		t.Fatal("Blocks not sorted")
	}
}

func TestCoverSetUnionDiff(t *testing.T) {
	a, b := NewCoverSet(200), NewCoverSet(200)
	for _, blk := range []BlockID{1, 2, 3, 100} {
		a.Add(blk)
	}
	for _, blk := range []BlockID{2, 150} {
		b.Add(blk)
	}
	if got := a.Diff(b); got != 3 {
		t.Fatalf("Diff = %d, want 3", got)
	}
	if got := b.Diff(a); got != 1 {
		t.Fatalf("reverse Diff = %d, want 1", got)
	}
	added := a.Union(b)
	if added != 1 || a.Count() != 5 {
		t.Fatalf("Union added %d, count %d", added, a.Count())
	}
	checkBlocks(t, a, 1, 2, 3, 100, 150)
	// Union with a longer set grows the receiver.
	c := NewCoverSet(0)
	if c.Union(a) != 5 || !c.Equal(a) {
		t.Fatal("union into empty set diverged")
	}
}

func TestCoverSetClearClone(t *testing.T) {
	s := NewCoverSet(128)
	s.Add(5)
	s.Add(99)
	c := s.Clone()
	s.Clear()
	if s.Count() != 0 || len(s.Blocks()) != 0 {
		t.Fatal("Clear left residue")
	}
	checkBlocks(t, c, 5, 99) // Clone shares no state with the original
	if s.Equal(c) {
		t.Fatal("cleared set equal to clone")
	}
	s.Add(5)
	s.Add(99)
	if !s.Equal(c) {
		t.Fatal("re-added set not equal")
	}
}

func TestCoverSetEqualNil(t *testing.T) {
	var nilSet *CoverSet
	empty := &CoverSet{}
	if !nilSet.Equal(empty) || !empty.Equal(nilSet) || !nilSet.Equal(nilSet) {
		t.Fatal("nil and empty sets should compare equal")
	}
	one := NewCoverSet(64)
	one.Add(3)
	if nilSet.Equal(one) || one.Equal(nilSet) {
		t.Fatal("nil set equal to non-empty set")
	}
}

// TestCoverSetMatchesMapModel cross-checks the bitmap against the map
// implementation it replaced.
func TestCoverSetMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := NewCoverSet(1 << 12)
	model := map[BlockID]struct{}{}
	for i := 0; i < 5000; i++ {
		b := BlockID(r.Intn(1 << 12))
		_, dup := model[b]
		model[b] = struct{}{}
		if s.Add(b) == dup {
			t.Fatalf("Add(%d) newness diverged from model", b)
		}
	}
	if s.Count() != len(model) {
		t.Fatalf("Count %d vs model %d", s.Count(), len(model))
	}
	for _, b := range s.Blocks() {
		if _, ok := model[b]; !ok {
			t.Fatalf("block %d not in model", b)
		}
	}
}
