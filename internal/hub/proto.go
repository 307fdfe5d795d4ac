// Package hub is the multi-campaign coordination daemon and its
// embedded campaign client. Independent fuzzing campaigns — separate
// processes, machines, or CI jobs — register with a hub, periodically
// push their corpus deltas, new coverage, and crashes, and pull the
// merged global corpus diff since their last sync. The hub maintains
// an authoritative on-disk corpus store (fuzz/corpusstore), a global
// crash-dedup table keyed by crash title, the unit campaigns count
// bugs in (first reporter wins, duplicate reports tracked; hit counts
// arrive cumulative per title and are differenced per worker and
// title), and live aggregated
// stats served as JSON for monitoring. The hub is its store's one
// writer: the corpus index it serves from — generation, entries, their
// texts — is the store handle's own image (corpusstore.Store.Image),
// not a copy, and a merge writes only the files it adds. The rest of
// the hub's state — union coverage, the crash table and the worker
// leases — lives in a sidecar beside the store (state.go), so a
// restarted hub resumes its workers where they left off.
//
// A lease is a credential, not a timer: registration grants it, every
// sync presents it, and a sync that presents the worker's own lease is
// served however long ago the last one came. Expiry is only a label
// that /v1/stats computes from the lease's deadline; nothing is
// reclaimed and nothing refused when it passes.
//
// Every request that changes the hub's state runs one sequence: shed
// it if the hub is over its in-flight bound (syncs only), decode it,
// lock the hub and read the clock once, apply the event, encode the
// reply, fold the measured service time into the worker's sync
// aggregate (syncs only), persist the sidecar, and write the reply.
// apply, the one state change, is handed that clock reading: it reads
// no clock and writes no reply. A parent import is applied the same way.
//
// The wire protocol is versioned and runs over HTTP. POST /v1/register
// carries the JSON types below; POST /v1/sync, the one lease renewal,
// carries SyncRequest/SyncResponse as the binary frame stream of
// wire.go, its only encoding (error replies are JSON everywhere). A
// sync carries the campaign's own records — seedpool.SeedState,
// fuzz.CrashReport, fuzz.OpStat — and the stream names the fields of
// each that travel, so a record's campaign-side fields (a seed's Prog,
// a crash's FirstExec) never do. GET /v1/stats and /v1/crashes serve
// the monitoring views as JSON; GET /healthz answers liveness probes.
// Syncs are batched in both directions — a push ships at most
// MaxPushBatch seeds (the client keeps the rest for the next boundary)
// and a pull response ships whole store generations up to MaxPullBatch
// seeds, returning the generation the client should resume from.
package hub

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
)

// ProtoVersion is the wire-protocol version this package speaks.
// Requests carrying a different version are rejected with HTTP 400.
const ProtoVersion = 1

const (
	// MaxPushBatch bounds the seeds one sync pushes.
	MaxPushBatch = 256
	// MaxPullBatch bounds the seeds one sync response returns. The
	// bound is applied in whole generations so a client's resume
	// generation never splits one.
	MaxPullBatch = 512
)

// RegisterRequest announces a worker to the hub.
type RegisterRequest struct {
	Version int `json:"version"`
	// Name labels the worker in stats (hostname:pid by convention).
	Name string `json:"name"`
	// Fingerprint identifies the worker's compiled syscall surface
	// (see Fingerprint). Workers with different fingerprints may share
	// a hub: seeds are validated against each side's own target, so a
	// narrower worker simply skips seeds it cannot parse.
	Fingerprint string `json:"fingerprint"`
}

// RegisterResponse assigns the worker its hub identity and lease.
type RegisterResponse struct {
	Version  int    `json:"version"`
	WorkerID string `json:"worker_id"`
	// Generation is the store generation at registration; the first
	// sync pulls everything after 0 regardless, this is informational.
	Generation int `json:"generation"`
	// Seeds is the hub corpus size at registration.
	Seeds int `json:"seeds"`
	// HubFingerprint is the hub target's fingerprint, so a worker can
	// warn when its spec surface differs from the hub's.
	HubFingerprint string `json:"hub_fingerprint"`
	// LeaseID names the worker's lease. Every sync must present it,
	// and each sync renews it.
	LeaseID string `json:"lease_id,omitempty"`
	// LeaseTTLMs is how long after its last renewal, in milliseconds,
	// /v1/stats labels the lease expired.
	LeaseTTLMs int64 `json:"lease_ttl_ms,omitempty"`
}

// WorkerStats is a worker's cumulative campaign counters, refreshed
// on every sync.
type WorkerStats struct {
	Execs   int           `json:"execs"`
	Cover   int           `json:"cover"`
	Crashes int           `json:"crashes"`
	Ops     []fuzz.OpStat `json:"ops,omitempty"`
}

// SyncRequest is one worker→hub exchange: push the deltas, pull the
// merged corpus diff since SinceGen. It travels only as the binary
// frame stream of wire.go.
type SyncRequest struct {
	WorkerID string
	// LeaseID authenticates the exchange against the worker's lease
	// and renews it; a sync without the worker's current lease gets
	// the 404 re-register hint.
	LeaseID string
	// SinceGen is the last store generation the worker has pulled.
	SinceGen int
	// Seeds are corpus entries the worker has not pushed before. Each
	// travels as its Text, Prio, Bonus and Op; Prog stays behind, and a
	// decoded seed is text only.
	Seeds []seedpool.SeedState
	// CoverDelta is the coverage gained since the previous sync, as the
	// vkernel.CoverSet.EncodeDelta stream the cover frame carries
	// verbatim (empty = nothing new). A decoded request's delta has
	// been validated and is safe to ApplyDelta.
	CoverDelta []byte
	// Crashes are crash reports new or grown since the previous sync.
	// Each travels as its Title, Repro and Count; FirstExec stays
	// behind. Count is the worker's cumulative hit count; the hub
	// differences it against the worker's previous report, which keeps
	// retried syncs idempotent — a delta encoding would double-count
	// whenever a response is lost after the server already committed
	// the exchange.
	Crashes []fuzz.CrashReport
	// Stats is the worker's cumulative campaign snapshot.
	Stats WorkerStats
	// Final marks the worker's campaign-end sync.
	Final bool
}

// SyncResponse carries the merged corpus diff back, as the binary
// frame stream of wire.go.
type SyncResponse struct {
	// Generation is the store generation the returned seeds reach;
	// the client resumes from it. It can be lower than the request's
	// SinceGen after a hub restart — clients must then restart from 0.
	Generation int
	// Seeds is the corpus diff (SinceGen, Generation], text only on
	// the wire as in a request.
	Seeds []seedpool.SeedState
	// RejectedSeeds counts pushed seeds the hub's target could not
	// parse (stale or out-of-surface programs).
	RejectedSeeds int
	// LeaseTTLMs echoes the renewed lease's time-to-live.
	LeaseTTLMs int64
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// CrashJSON is one globally deduplicated crash in the monitoring
// views (/v1/crashes and -stats-json dumps).
type CrashJSON struct {
	Title string `json:"title"`
	// Repro is the first reporter's repro text, normalized through the
	// hub target when it parses; the dedup table keys on Title.
	Repro string `json:"repro"`
	// FirstWorker is the worker that reported the crash first
	// (first-reporter-wins attribution).
	FirstWorker string `json:"first_worker,omitempty"`
	// Count is the total hits summed across workers.
	Count int `json:"count"`
	// Reports counts sync reports that mentioned the crash; Workers
	// counts distinct reporting workers (Workers > 1 means the title
	// was independently rediscovered, under any repro — a deduplicated
	// duplicate).
	Reports int `json:"reports,omitempty"`
	Workers int `json:"workers,omitempty"`
	// FirstExec is the exec index of the first local discovery (only
	// meaningful in single-campaign dumps).
	FirstExec int `json:"first_exec,omitempty"`
}

// HubStats is the GET /v1/stats monitoring document.
type HubStats struct {
	Version    int `json:"version"`
	Generation int `json:"generation"`
	// Seeds is the merged corpus size; UnionCover the globally merged
	// covered-block count.
	Seeds      int `json:"seeds"`
	UnionCover int `json:"union_cover"`
	// Execs sums the latest cumulative exec counts of every worker;
	// ExecsPerSec divides by the hub's uptime.
	Execs       int     `json:"execs"`
	ExecsPerSec float64 `json:"execs_per_sec"`
	// Crashes counts deduplicated crashes, one per title;
	// CrashReports sums the sync reports folded into them;
	// RejectedSeeds counts pushes the hub's target could not parse.
	Crashes       int `json:"crashes"`
	CrashReports  int `json:"crash_reports"`
	RejectedSeeds int `json:"rejected_seeds"`
	// Ops is the per-operator yield summed across workers.
	Ops     []fuzz.OpStat `json:"ops,omitempty"`
	Workers []WorkerJSON  `json:"workers"`
	// Sync is the hub-wide sync cost aggregate (sums over workers;
	// maxes are the worst single sync seen anywhere).
	Sync SyncAggJSON `json:"sync"`
	// ActiveLeases/ExpiredLeases/ReleasedLeases count the workers by
	// lease label: renewed within the TTL, not renewed for longer, and
	// released by a Final sync. ActiveLeases == 0 after a clean
	// campaign end.
	ActiveLeases   int `json:"active_leases"`
	ExpiredLeases  int `json:"expired_leases"`
	ReleasedLeases int `json:"released_leases"`
	// Parent is the upstream hub URL when this hub is a leaf in a
	// hierarchical topology (empty for root/standalone hubs).
	Parent string `json:"parent,omitempty"`
}

// SyncAggJSON aggregates the cost of a worker's /v1/sync exchanges:
// how many ran, how long the hub spent serving them (time under the
// hub lock — merge, save, diff, encode — excluding queueing and the
// sidecar write that records the exchange), and how large the
// request payloads were. Count/sum/max lets operators read mean and
// worst-case sync cost per worker straight off /v1/stats, and gives
// `syzplan fit` the hub-side service-time coefficient.
type SyncAggJSON struct {
	Count int `json:"count"`
	// ServiceNsSum/ServiceNsMax aggregate per-sync service time in
	// nanoseconds.
	ServiceNsSum int64 `json:"service_ns_sum"`
	ServiceNsMax int64 `json:"service_ns_max"`
	// BytesSum/BytesMax aggregate request payload sizes as they
	// arrived on the wire.
	BytesSum int64 `json:"bytes_sum"`
	BytesMax int64 `json:"bytes_max"`
}

// MeanServiceNs returns the average per-sync service time.
func (a SyncAggJSON) MeanServiceNs() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.ServiceNsSum) / float64(a.Count)
}

// MeanBytes returns the average request payload size.
func (a SyncAggJSON) MeanBytes() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.BytesSum) / float64(a.Count)
}

// WorkerJSON is one registered worker in the stats view.
type WorkerJSON struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	Fingerprint string `json:"fingerprint"`
	// LastSyncUnix is the wall-clock time of the worker's latest
	// sync, in Unix seconds (0 = registered but never synced).
	LastSyncUnix int64 `json:"last_sync_unix,omitempty"`
	Final        bool  `json:"final,omitempty"`
	// Lease labels the worker's lease: "released" after a Final sync,
	// "expired" once the TTL has passed since the last renewal,
	// "active" otherwise.
	Lease string      `json:"lease,omitempty"`
	Stats WorkerStats `json:"stats"`
	// Sync aggregates the worker's sync service times and payloads.
	Sync SyncAggJSON `json:"sync"`
}

// CampaignStats is the wire form of one campaign's fuzz.Stats — the
// schema syzfuzz -stats-json writes, shared with the hub's monitoring
// views so scripts parse one format everywhere.
type CampaignStats struct {
	Execs      int           `json:"execs"`
	Cover      int           `json:"cover"`
	CorpusSize int           `json:"corpus_size"`
	Crashes    []CrashJSON   `json:"crashes,omitempty"`
	Ops        []fuzz.OpStat `json:"ops,omitempty"`
	// Wall-clock ground truth (fuzz.Stats timing fields, in
	// nanoseconds): campaign elapsed, summed per-unit work time,
	// triage share, and hub-sync cost. `syzplan fit` calibrates its
	// cost model from these.
	ElapsedNs int64 `json:"elapsed_ns,omitempty"`
	WorkNs    int64 `json:"work_ns,omitempty"`
	TriageNs  int64 `json:"triage_ns,omitempty"`
	SyncNs    int64 `json:"sync_ns,omitempty"`
	Syncs     int   `json:"syncs,omitempty"`
}

// CampaignDump is a full syzfuzz -stats-json document: per-repetition
// stats plus the cross-repetition aggregates the CLI prints.
type CampaignDump struct {
	Version      int             `json:"version"`
	Reps         []CampaignStats `json:"reps"`
	UnionCover   int             `json:"union_cover"`
	MeanCover    float64         `json:"mean_cover"`
	UnionCrashes int             `json:"union_crashes"`
}

// FromStats converts one campaign outcome to its wire form.
func FromStats(s *fuzz.Stats) CampaignStats {
	out := CampaignStats{
		Execs:      s.Execs,
		Cover:      s.CoverCount(),
		CorpusSize: s.CorpusSize,
		Ops:        ranOps(s.Ops),
		ElapsedNs:  s.Elapsed.Nanoseconds(),
		WorkNs:     s.WorkTime.Nanoseconds(),
		TriageNs:   s.TriageTime.Nanoseconds(),
		SyncNs:     s.SyncTime.Nanoseconds(),
		Syncs:      s.Syncs,
	}
	for _, title := range s.CrashTitles() {
		cr := s.Crashes[title]
		out.Crashes = append(out.Crashes, CrashJSON{
			Title: cr.Title, Repro: cr.Repro, Count: cr.Count, FirstExec: cr.FirstExec,
		})
	}
	return out
}

// DumpStats builds the full -stats-json document from a run's
// per-repetition stats.
func DumpStats(reps []*fuzz.Stats) CampaignDump {
	d := CampaignDump{Version: ProtoVersion, Reps: []CampaignStats{}}
	for _, s := range reps {
		d.Reps = append(d.Reps, FromStats(s))
	}
	d.UnionCover = fuzz.UnionCover(reps).Count()
	d.MeanCover = fuzz.MeanCover(reps)
	d.UnionCrashes = len(fuzz.UnionCrashTitles(reps))
	return d
}

// ranOps copies operator stats without the operators that never ran.
func ranOps(ops []fuzz.OpStat) []fuzz.OpStat {
	return slices.DeleteFunc(slices.Clone(ops), func(op fuzz.OpStat) bool { return op.Picks == 0 && op.NewBlocks == 0 })
}

// Fingerprint digests a compiled target's syscall surface: the sorted
// syscall names hashed to a short stable hex string. Two targets
// compiled from the same specs fingerprint identically regardless of
// declaration order.
func Fingerprint(t *prog.Target) string {
	names := make([]string, 0, len(t.Syscalls))
	for _, sc := range t.Syscalls {
		names = append(names, sc.Name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
