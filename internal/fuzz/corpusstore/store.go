// Package corpusstore persists an evolved fuzzing corpus across
// campaigns — the analogue of reusing profiles across builds in PGO:
// prior-run knowledge makes every subsequent campaign start warmer.
//
// A store is a directory of content-addressed repro-text files (one
// program per file, named by the SHA-256 of its serialized text) plus
// a JSON manifest carrying the seedpool scheduling state for each
// entry (priority, lineage bonus, operator provenance) and the
// covered-block count of the campaign that last flushed it.
//
// Writes are atomic — every file lands via temp-file + rename, and
// the manifest is renamed into place last — so a crashed flush never
// leaves a half-written store. Loading is tolerant: entries whose
// content no longer matches their address (corruption) or that no
// longer deserialize against the current target (staleness after a
// spec change) are skipped and reported, never fatal. Stores
// accumulate across runs via Merge, which deduplicates by program
// text, keeps the highest-weight copy, and bounds the result
// deterministically.
//
// A store expects one writer at a time; concurrent campaigns should
// flush through a single merge point (as fuzz.RunParallel does). That
// rule is what lets a Store handle keep the one in-memory image of its
// directory (Store.Image): the manifest it last loaded or saved, each
// entry with its program text once the handle has checked that file
// against its address (Load) or written it (Save). Nobody else changes
// the directory, so Save takes generations from the image instead of
// re-reading the manifest it wrote, and writes only the manifest and
// the program files the image does not vouch for — a checkpoint or a
// hub merge costs what it adds, not the corpus; a handle that has
// neither loaded nor saved vouches for nothing and writes every file.
// What this gives up: a file that rots on disk after its handle checked
// it is no longer rewritten (and so, by accident, healed) by that
// handle's next Save. The next Load — any handle's — still catches the
// mismatch, skips and reports the entry, and a Save that still holds
// the program then writes it again.
package corpusstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
)

// Version is the manifest format version this package writes.
const Version = 1

const (
	manifestName = "manifest.json"
	progExt      = ".prog"
)

// Entry is one stored seed's manifest record. The program text itself
// lives in the content-addressed File.
type Entry struct {
	// File is the content-addressed file name: <sha256-prefix>.prog.
	File string `json:"file"`
	// Prio is the seed's base scheduling weight.
	Prio int `json:"prio"`
	// Bonus is the seed's lineage bonus at flush time.
	Bonus int `json:"bonus,omitempty"`
	// Op is the mutation operator that bred the seed ("" = generated).
	Op string `json:"op,omitempty"`
	// Gen is the store generation that first admitted the entry
	// (see Manifest.Generation). Always >= 1 in manifests written by
	// this version; 0 marks entries from pre-generation manifests.
	Gen int `json:"gen,omitempty"`
	// Text is the program text in File, set only in a handle's image
	// (Store.Image) and only once that handle has loaded the entry from
	// a file matching its address or written the file itself; a
	// manifest read off disk vouches for nothing and leaves it empty.
	Text string `json:"-"`
}

// Manifest is the JSON index of a store directory.
type Manifest struct {
	Version int `json:"version"`
	// Generation counts Saves: every Save bumps it by one and stamps
	// entries whose program file was not in the previous manifest with
	// the new value. Diff uses it to ship only entries added after a
	// point in time — the hub's incremental corpus-sync primitive.
	Generation int `json:"generation,omitempty"`
	// CoverBlocks is the covered-block count of the campaign that
	// last flushed the store (metadata for tooling; Load reports it).
	CoverBlocks int     `json:"cover_blocks"`
	Seeds       []Entry `json:"seeds"`
}

// Skip records one entry the loader rejected and why.
type Skip struct {
	File   string
	Reason string
}

// Report summarizes one Load: how many entries made it, which were
// skipped, and the store's recorded coverage metadata.
type Report struct {
	Loaded      int
	Skipped     []Skip
	CoverBlocks int
}

// String renders the report in one line (skip reasons included).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "corpus store: loaded %d seeds (store cover %d blocks)", r.Loaded, r.CoverBlocks)
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "; skipped %s: %s", s.File, s.Reason)
	}
	return b.String()
}

// Store is a handle on one corpus directory.
type Store struct {
	dir string
	// image is the manifest this handle last loaded or saved (nil
	// before either).
	image *Manifest
}

// Open returns a store rooted at dir, creating the directory if
// needed. Opening an empty directory yields an empty store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("corpusstore: empty directory path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpusstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// FileFor returns the content-addressed file name for a program's
// serialized text.
func FileFor(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8]) + progExt
}

// Manifest reads the store's index. A store with no manifest yet is
// an empty manifest, not an error; a manifest that fails to parse is
// an error (the whole index is gone, there is nothing to tolerate
// entry-by-entry).
func (s *Store) Manifest() (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return &Manifest{Version: Version}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("corpusstore: %w", err)
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("corpusstore: %s: %w", manifestName, err)
	}
	if m.Version > Version {
		return nil, fmt.Errorf("corpusstore: manifest version %d newer than supported %d", m.Version, Version)
	}
	return m, nil
}

// Image returns the handle's picture of the directory: the manifest it
// last loaded or saved, each entry carrying its Text once this handle
// has checked or written that file. Under the one-writer rule nothing
// else changes the directory, so the image is what the directory
// holds, and Save and the hub read it in place of the disk. A handle
// that has neither loaded nor saved adopts the manifest on disk,
// vouching for none of its files (an unreadable one reads as empty).
// The image is shared: callers must not modify it.
func (s *Store) Image() *Manifest {
	if s.image == nil {
		m, err := s.Manifest()
		if err != nil {
			return &Manifest{Version: Version}
		}
		s.image = m
	}
	return s.image
}

// Save atomically replaces the store contents with the given seeds
// (typically a Merge result); a state is stored by its Text and needs
// no Prog (the hub's corpus is text only), and one without Text is
// skipped. Program files are written first, the
// manifest is renamed into place last, and prog files no longer
// referenced are removed best-effort — so a reader always sees a
// consistent (old or new) store. Files are content-addressed and never
// change, so one the image vouches for (see Image) is left alone: a
// Save costs the manifest plus the programs that are new to this
// handle.
//
// Save advances the store generation: entries whose program file the
// image already indexes keep their admission generation, new entries
// are stamped with the fresh one. An unreadable previous manifest
// restarts the generation lineage rather than failing the save (the
// data being written is intact either way). The new image is installed
// only once the manifest is in place; a failed Save leaves the old one.
func (s *Store) Save(seeds []seedpool.SeedState, coverBlocks int) error {
	img := s.Image()
	prev := make(map[string]Entry, len(img.Seeds))
	for _, e := range img.Seeds {
		prev[e.File] = e
	}
	gen := img.Generation + 1
	m := &Manifest{Version: Version, Generation: gen, CoverBlocks: coverBlocks}
	keep := map[string]bool{}
	for _, st := range seeds {
		if st.Text == "" || st.Prio <= 0 {
			continue
		}
		name := FileFor(st.Text)
		if keep[name] {
			continue // duplicate program; first (highest-ranked) entry wins
		}
		old := prev[name]
		if old.Text != st.Text {
			if err := WriteAtomic(filepath.Join(s.dir, name), []byte(st.Text)); err != nil {
				return fmt.Errorf("corpusstore: %w", err)
			}
		}
		keep[name] = true
		eg := gen
		if old.Gen > 0 {
			eg = old.Gen
		}
		m.Seeds = append(m.Seeds, Entry{File: name, Prio: st.Prio, Bonus: st.Bonus, Op: st.Op, Gen: eg, Text: st.Text})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("corpusstore: %w", err)
	}
	if err := WriteAtomic(filepath.Join(s.dir, manifestName), append(data, '\n')); err != nil {
		return fmt.Errorf("corpusstore: %w", err)
	}
	s.image = m
	// Garbage-collect orphaned program files from earlier flushes.
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil // the save itself succeeded
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, progExt) && !keep[name] {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	return nil
}

// WriteAtomic lands data at path via temp file + rename — the one
// writer behind every file this package and the hub's state sidecar
// put on disk.
func WriteAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads every manifest entry, verifies its content address, and
// deserializes it against the target (which validates resource
// references). Entries that fail any step are skipped and reported;
// only a missing/corrupt manifest is an error. The returned states
// preserve manifest order and carry their Text. What was read becomes
// the handle's image, vouching for exactly the files that loaded.
func (s *Store) Load(t *prog.Target) ([]seedpool.SeedState, *Report, error) {
	m, err := s.Manifest()
	if err != nil {
		return nil, nil, err
	}
	out, rep := s.loadEntries(t, m, 0)
	s.image = m
	return out, rep, nil
}

// Diff loads only the entries admitted after generation since — the
// incremental form of Load that lets a sync ship just the seeds a
// reader has not seen yet. since <= 0 selects everything (entries
// from pre-generation manifests carry Gen 0 and are included only
// then). The store's current generation is returned so the caller can
// resume from it; entries that fail validation are skipped and
// reported exactly as in Load. Diff is the form for tooling and
// out-of-process readers: it reads the disk and leaves the handle's
// image alone (the hub, the store's writer, selects the same entries
// from its handle's image).
func (s *Store) Diff(t *prog.Target, since int) ([]seedpool.SeedState, int, *Report, error) {
	m, err := s.Manifest()
	if err != nil {
		return nil, 0, nil, err
	}
	out, rep := s.loadEntries(t, m, since)
	return out, m.Generation, rep, nil
}

// loadEntries loads m's entries admitted after generation since,
// recording on each one that loads the text its file holds.
func (s *Store) loadEntries(t *prog.Target, m *Manifest, since int) ([]seedpool.SeedState, *Report) {
	rep := &Report{CoverBlocks: m.CoverBlocks}
	var out []seedpool.SeedState
	for i := range m.Seeds {
		e := &m.Seeds[i]
		if since > 0 && e.Gen <= since {
			continue
		}
		st, reason := s.loadEntry(t, e)
		if reason != "" {
			rep.Skipped = append(rep.Skipped, Skip{File: e.File, Reason: reason})
			continue
		}
		out = append(out, st)
	}
	rep.Loaded = len(out)
	return out, rep
}

// loadEntry validates one entry; a non-empty reason means skip.
func (s *Store) loadEntry(t *prog.Target, e *Entry) (seedpool.SeedState, string) {
	if e.Prio <= 0 {
		return seedpool.SeedState{}, fmt.Sprintf("non-positive priority %d", e.Prio)
	}
	if e.File == "" || filepath.Base(e.File) != e.File {
		return seedpool.SeedState{}, fmt.Sprintf("bad file name %q", e.File)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		return seedpool.SeedState{}, fmt.Sprintf("unreadable: %v", err)
	}
	if FileFor(string(data)) != e.File {
		return seedpool.SeedState{}, "content does not match address (corrupted)"
	}
	p, err := prog.Deserialize(t, string(data))
	if err != nil {
		return seedpool.SeedState{}, fmt.Sprintf("stale against target: %v", err)
	}
	// Deserialize is lenient, so the seed's identity is the program
	// re-rendered; the entry is vouched for only when that is what its
	// file holds, i.e. when it is the file Save would write.
	text := p.Serialize()
	if text == string(data) {
		e.Text = text
	}
	return seedpool.SeedState{Prog: p, Text: text, Prio: e.Prio, Bonus: e.Bonus, Op: e.Op}, ""
}

// Merge folds seed sets into one bounded corpus. Sets are
// visited in argument order; duplicate programs (identical Text)
// keep the higher-weight copy (earlier copy wins ties). The
// result is ordered by descending weight, then ascending program
// text, and truncated to capacity (<= 0 selects
// seedpool.DefaultCapacity) — fully deterministic for a fixed
// argument order, independent of map iteration or completion order.
// A state without Text is skipped; one with it needs no Prog, and the
// result keeps only the programs its states brought.
func Merge(capacity int, sets ...[]seedpool.SeedState) []seedpool.SeedState {
	if capacity <= 0 {
		capacity = seedpool.DefaultCapacity
	}
	index := map[string]int{}
	var out []seedpool.SeedState
	for _, set := range sets {
		for _, st := range set {
			if st.Text == "" || st.Prio <= 0 {
				continue
			}
			if i, ok := index[st.Text]; ok {
				if st.Weight() > out[i].Weight() {
					out[i] = st
				}
				continue
			}
			index[st.Text] = len(out)
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if wi, wj := out[i].Weight(), out[j].Weight(); wi != wj {
			return wi > wj
		}
		return out[i].Text < out[j].Text
	})
	if len(out) > capacity {
		out = append([]seedpool.SeedState(nil), out[:capacity]...) // unpin the cut tail
	}
	return out
}
