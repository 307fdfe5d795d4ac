package hub

import (
	"context"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/seedpool"
)

// Hierarchical hubs. A leaf hub aggregates its own workers' deltas
// and periodically plays the worker role against a root hub, reusing
// the Client machinery verbatim: the leaf's merged corpus, union
// coverage, and crash table become one upward SyncState, and the
// Client's content-addressed seed dedup, cover-delta, and cumulative
// crash-count differencing apply unchanged. Seeds pulled from the
// root merge into the leaf's store, where leaf workers pick them up
// through the ordinary generation diff — so fan-in at the root scales
// with the number of leaves, not the number of workers.

// parentState snapshots the hub's aggregate state as a campaign-shaped
// SyncState for the upward sync.
func (h *Hub) parentState(final bool) fuzz.SyncState {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := fuzz.SyncState{
		Seeds: append([]seedpool.SeedState(nil), h.states...),
		Cover: h.cover.Clone(),
		Final: final,
	}
	for _, rec := range h.sortedCrashesLocked() {
		st.Crashes = append(st.Crashes, fuzz.CrashReport{
			Title: rec.Title, Repro: rec.Repro, Count: rec.Count,
		})
	}
	st.Execs, st.Ops = h.totalsLocked()
	return st
}

// SyncParent runs one upward exchange against a parent hub through
// client (a Client dialed at the parent's URL): push this hub's
// aggregate deltas, then apply the pulled corpus diff as one parent
// import. It returns the number of seeds imported from the parent.
// final releases the leaf's lease on the parent (shutdown). The hub
// mutex is not held across the network exchange, so local worker
// syncs proceed while the parent round-trips. An import changes only
// the store, so the state sidecar is not rewritten.
func (h *Hub) SyncParent(ctx context.Context, client *Client, final bool) (int, error) {
	imported, err := client.Sync(ctx, h.parentState(final))
	if err != nil || len(imported) == 0 {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, err := h.apply(h.now(), imported); err != nil {
		return 0, err
	}
	return len(imported), nil
}
