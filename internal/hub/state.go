package hub

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"kernelgpt/internal/fuzz/corpusstore"
)

// Hub state sidecar. The corpus store persists seeds; the hub's other
// authoritative state — union coverage, the crash-dedup table, and
// per-worker leases with their cumulative crash counts — goes to a
// JSON sidecar (atomic temp+rename) whenever it changes: every
// register and sync. Reads never write it. New restores it, and a
// restarted hub then accepts existing workers' leases as if nothing
// happened.

// stateFile is the sidecar's name in the store directory, where New
// puts it unless WithStatePath moves it.
const stateFile = "hubstate.json"

// stateVersion is the sidecar format this build writes. Versions 1 and
// 2 are read and migrated, never written: 1 keyed each worker's
// crash_counts by normalized repro text, where 2 and 3 key them by
// crash title, the unit the client differences its cumulative counts
// in; 1 and 2 stored a lease state, where 3 stores the lease deadline.
// This build writes one crash record per title; a sidecar written
// while the table was keyed by repro can hold several under one title,
// and they load as one (see loadState).
const stateVersion = 3

// hubStateJSON is the sidecar document.
type hubStateJSON struct {
	Version       int   `json:"version"`
	NextWorker    int   `json:"next_worker"`
	NextLease     int   `json:"next_lease"`
	RejectedSeeds int   `json:"rejected_seeds"`
	StartUnixNs   int64 `json:"start_unix_ns"`
	// Cover is the union coverage as a vkernel compressed-bitmap
	// container stream (EncodeDelta against nothing).
	Cover   []byte             `json:"cover,omitempty"`
	Crashes []crashStateJSON   `json:"crashes,omitempty"`
	Workers []*workerStateJSON `json:"workers,omitempty"`
}

// crashStateJSON is one record of the crash table, in memory
// (Hub.crashes) and in the sidecar alike: the first reporter's repro
// and id, the hits summed across workers, the sync reports folded in,
// and the sorted ids of every reporting worker.
type crashStateJSON struct {
	Title       string   `json:"title"`
	Repro       string   `json:"repro"`
	FirstWorker string   `json:"first_worker"`
	Count       int      `json:"count"`
	Reports     int      `json:"reports"`
	Workers     []string `json:"workers,omitempty"`
}

// addWorker adds id to the record's reporting workers, keeping them
// sorted and unique.
func (rec *crashStateJSON) addWorker(id string) {
	if i, found := slices.BinarySearch(rec.Workers, id); !found {
		rec.Workers = slices.Insert(rec.Workers, i, id)
	}
}

// sortedCrashesLocked returns the crash table's records by title.
// Callers hold h.mu.
func (h *Hub) sortedCrashesLocked() []crashStateJSON {
	out := make([]crashStateJSON, 0, len(h.crashes))
	for _, rec := range h.crashes {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Title < out[j].Title })
	return out
}

// sortedWorkersLocked returns the workers in id order, w2 before w10:
// the order of /v1/stats and of the sidecar. Callers hold h.mu.
func (h *Hub) sortedWorkersLocked() []*workerStateJSON {
	out := make([]*workerStateJSON, 0, len(h.workers))
	for _, wk := range h.workers {
		out = append(out, wk)
	}
	slices.SortFunc(out, func(a, b *workerStateJSON) int {
		return cmp.Or(cmp.Compare(len(a.ID), len(b.ID)), strings.Compare(a.ID, b.ID))
	})
	return out
}

// workerStateJSON is one registered campaign's record, in memory
// (Hub.workers) and in the sidecar alike. /v1/stats shows it as a
// WorkerJSON, which carries no lease ID.
type workerStateJSON struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// LeaseID is the credential every sync of the worker presents.
	LeaseID string `json:"lease_id,omitempty"`
	// LeaseDeadlineNs is leaseTTL after the lease's grant or last
	// non-final sync, in Unix ns (version 3); only the lease label reads
	// it.
	LeaseDeadlineNs int64 `json:"lease_deadline_ns,omitempty"`
	// LeaseState is "active", "expired" or "released" (versions 1 and
	// 2); loadState turns it into a deadline.
	LeaseState string `json:"lease_state,omitempty"`
	// LastSyncNs is the lock-acquisition time of the worker's latest
	// served sync, in Unix ns (0: none yet).
	LastSyncNs int64       `json:"last_sync_ns,omitempty"`
	Final      bool        `json:"final,omitempty"`
	Stats      WorkerStats `json:"stats"`
	// Sync aggregates the worker's per-sync service time and payload
	// size (see observeSync).
	Sync SyncAggJSON `json:"sync"`
	// CrashCounts is the worker's last reported cumulative hit count
	// per crash title — the unit the client counts in; recordCrash
	// differences against it so retried reports fold in exactly once.
	CrashCounts map[string]int `json:"crash_counts,omitempty"`
}

// persistLocked mirrors the hub state to the sidecar. Best-effort: a
// failed write is logged, not fatal — the corpus store stays the
// source of truth for seeds, and losing the sidecar only degrades a
// future restart to the clients' full-replay path. Callers hold h.mu.
func (h *Hub) persistLocked() {
	if h.coverEnc == nil {
		h.coverEnc = h.cover.EncodeDelta(nil)
	}
	doc := hubStateJSON{
		Version:       stateVersion,
		NextWorker:    h.nextWorker,
		NextLease:     h.nextLease,
		RejectedSeeds: h.rejectedSeeds,
		StartUnixNs:   h.start.UnixNano(),
		Cover:         h.coverEnc,
		Crashes:       h.sortedCrashesLocked(),
		Workers:       h.sortedWorkersLocked(),
	}
	data, err := json.Marshal(&doc)
	if err != nil {
		h.logf("hub: state marshal: %v", err)
		return
	}
	if err := corpusstore.WriteAtomic(h.statePath, data); err != nil {
		h.logf("hub: state write: %v", err)
	}
}

// loadState restores the sidecar written by persistLocked. A missing
// file is a fresh start; a corrupt one is an error (silently starting
// empty would double-count crash reports from clients that trust
// their restored leases). A lease keeps its stored deadline, so the
// downtime counts toward its label, which refuses nothing. A lease
// state of version 1 or 2 becomes a deadline: "active" gets a fresh
// TTL from load time, "expired" the Unix epoch, and "released" needs
// none (final says it). Records stored under one title (as a hub keyed
// by repro wrote them) merge into one: counts, reports and worker sets
// add up, and the first listed keeps its repro and first worker.
// Callers have exclusive access (New, pre-publication).
//
//syzlint:locked mu
func (h *Hub) loadState() error {
	data, err := os.ReadFile(h.statePath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("hub: state read: %w", err)
	}
	var doc hubStateJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("hub: state %s: %w", filepath.Base(h.statePath), err)
	}
	if doc.Version < 1 || doc.Version > stateVersion {
		return fmt.Errorf("hub: state version %d not supported (this build speaks %d)", doc.Version, stateVersion)
	}
	h.nextWorker = doc.NextWorker
	h.nextLease = doc.NextLease
	h.rejectedSeeds = doc.RejectedSeeds
	if doc.StartUnixNs != 0 {
		// Keep the original campaign epoch so execs/sec stays honest
		// across restarts (worker exec counters are cumulative).
		h.start = time.Unix(0, doc.StartUnixNs)
	}
	if len(doc.Cover) > 0 {
		if _, err := h.cover.ApplyDelta(doc.Cover); err != nil {
			return fmt.Errorf("hub: state cover: %w", err)
		}
	}
	titleOf := map[string]string{} // version 1: repro -> title
	for _, cs := range doc.Crashes {
		titleOf[cs.Repro] = cs.Title
		rec := h.crashes[cs.Title]
		if rec == nil {
			rec = &crashStateJSON{Title: cs.Title, Repro: cs.Repro, FirstWorker: cs.FirstWorker}
			h.crashes[cs.Title] = rec
		}
		rec.Count += cs.Count
		rec.Reports += cs.Reports
		for _, id := range cs.Workers {
			rec.addWorker(id)
		}
	}
	now := h.now()
	for _, wk := range doc.Workers {
		if wk == nil {
			wk = &workerStateJSON{}
		}
		if doc.Version == 1 {
			// Keyed by repro then. Counts are cumulative per title, so a
			// title's count is the largest under any of its repros.
			byTitle := map[string]int{}
			for repro, n := range wk.CrashCounts {
				if title, ok := titleOf[repro]; ok {
					byTitle[title] = max(n, byTitle[title])
				}
			}
			wk.CrashCounts = byTitle
		}
		if doc.Version < 3 && wk.LeaseState == LeaseActive {
			wk.LeaseDeadlineNs = now.Add(leaseTTL).UnixNano()
		}
		wk.LeaseState = ""
		h.workers[wk.ID] = wk
	}
	h.logf("hub: restored state: %d workers, %d crashes, %d cover blocks",
		len(doc.Workers), len(h.crashes), h.cover.Count())
	return nil
}
