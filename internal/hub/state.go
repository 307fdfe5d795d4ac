package hub

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
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
const stateVersion = 3

// hubStateJSON is the sidecar document.
type hubStateJSON struct {
	Version       int   `json:"version"`
	NextWorker    int   `json:"next_worker"`
	NextLease     int   `json:"next_lease"`
	RejectedSeeds int   `json:"rejected_seeds"`
	CrashReports  int   `json:"crash_reports"`
	StartUnixNs   int64 `json:"start_unix_ns"`
	// Cover is the union coverage as a vkernel compressed-bitmap
	// container stream (EncodeDelta against nothing).
	Cover   []byte            `json:"cover,omitempty"`
	Crashes []crashStateJSON  `json:"crashes,omitempty"`
	Workers []workerStateJSON `json:"workers,omitempty"`
}

type crashStateJSON struct {
	Title       string   `json:"title"`
	Repro       string   `json:"repro"`
	FirstWorker string   `json:"first_worker"`
	Count       int      `json:"count"`
	Reports     int      `json:"reports"`
	Workers     []string `json:"workers,omitempty"`
}

type workerStateJSON struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	LeaseID     string `json:"lease_id,omitempty"`
	// LeaseDeadlineNs is the lease deadline in Unix ns (version 3).
	LeaseDeadlineNs int64 `json:"lease_deadline_ns,omitempty"`
	// LeaseState is "active", "expired" or "released" (versions 1 and 2).
	LeaseState  string         `json:"lease_state,omitempty"`
	Gen         int            `json:"gen,omitempty"`
	LastSyncNs  int64          `json:"last_sync_ns,omitempty"`
	Final       bool           `json:"final,omitempty"`
	Stats       WorkerStats    `json:"stats"`
	Sync        SyncAggJSON    `json:"sync"`
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
		CrashReports:  h.crashReports,
		StartUnixNs:   h.start.UnixNano(),
		Cover:         h.coverEnc,
	}
	keys := make([]string, 0, len(h.crashes))
	for k := range h.crashes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rec := h.crashes[k]
		cs := crashStateJSON{
			Title: rec.title, Repro: rec.repro, FirstWorker: rec.firstWorker,
			Count: rec.count, Reports: rec.reports,
		}
		for id := range rec.workers {
			cs.Workers = append(cs.Workers, id)
		}
		sort.Strings(cs.Workers)
		doc.Crashes = append(doc.Crashes, cs)
	}
	ids := make([]string, 0, len(h.workers))
	for id := range h.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		wk := h.workers[id]
		ws := workerStateJSON{
			ID: wk.id, Name: wk.name, Fingerprint: wk.fingerprint,
			LeaseID: wk.leaseID, LeaseDeadlineNs: wk.leaseDeadline.UnixNano(), Gen: wk.gen,
			Final: wk.final, Stats: wk.stats, Sync: wk.sync,
			CrashCounts: wk.crashCounts,
		}
		if !wk.lastSync.IsZero() {
			ws.LastSyncNs = wk.lastSync.UnixNano()
		}
		doc.Workers = append(doc.Workers, ws)
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
// none (final says it). Callers have exclusive access (New,
// pre-publication).
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
	h.crashReports = doc.CrashReports
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
	for _, cs := range doc.Crashes {
		rec := &crashRecord{
			title: cs.Title, repro: cs.Repro, firstWorker: cs.FirstWorker,
			count: cs.Count, reports: cs.Reports, workers: map[string]bool{},
		}
		for _, id := range cs.Workers {
			rec.workers[id] = true
		}
		h.crashes[cs.Repro] = rec
	}
	now := h.now()
	for _, ws := range doc.Workers {
		wk := &worker{
			id: ws.ID, name: ws.Name, fingerprint: ws.Fingerprint,
			leaseID: ws.LeaseID, leaseDeadline: time.Unix(0, ws.LeaseDeadlineNs), gen: ws.Gen,
			final: ws.Final, stats: ws.Stats, sync: ws.Sync,
			crashCounts: map[string]int{},
		}
		for key, n := range ws.CrashCounts {
			if doc.Version == 1 {
				// Keyed by repro then. Counts are cumulative per title, so
				// a title's count is the largest under any of its repros.
				rec := h.crashes[key]
				if rec == nil {
					continue
				}
				key, n = rec.title, max(n, wk.crashCounts[rec.title])
			}
			wk.crashCounts[key] = n
		}
		if ws.LastSyncNs != 0 {
			wk.lastSync = time.Unix(0, ws.LastSyncNs)
		}
		if doc.Version < 3 && ws.LeaseState == LeaseActive {
			wk.leaseDeadline = now.Add(leaseTTL)
		}
		h.workers[wk.id] = wk
	}
	h.logf("hub: restored state: %d workers, %d crashes, %d cover blocks",
		len(doc.Workers), len(doc.Crashes), h.cover.Count())
	return nil
}
