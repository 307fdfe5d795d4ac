// Command syzhub runs the multi-campaign coordination daemon: an
// HTTP hub that fuzzing workers (syzfuzz -hub, or any embedder of
// internal/hub.Client) register with to pool their corpora, crashes,
// and coverage. The hub maintains an authoritative on-disk corpus
// store — restartable: a new syzhub over the same -store continues
// the generation lineage and restores its lease table, crash counts,
// and union coverage from the state sidecar beside the store (or at
// -state PATH), so surviving workers keep syncing deltas without a
// full corpus replay — a global crash table with one record per crash
// title, and live aggregated stats.
//
// The hub validates pushed programs against the widest target the
// synthetic kernel supports (every loaded handler's oracle spec plus
// the fd-plumbing surface), so workers running narrower suites can
// all pool into one store; each worker re-validates pulled seeds
// against its own target and skips what it cannot parse.
//
// Every sync presents its worker's lease (expired in /v1/stats a minute
// after the last sync, a label that refuses nothing); -max-inflight and
// -min-sync-interval shed load with 429 + Retry-After when the fleet
// outruns the hub.
//
// With -parent URL the hub runs as a leaf in a hierarchical topology:
// it registers with the root hub as one worker and periodically syncs
// its aggregate deltas upward (every -parent-interval), pulling the
// root's merged corpus down for its own workers — so root fan-in
// scales with leaf count, not worker count.
//
// Endpoints:
//
//	POST /v1/register   worker announce, lease grant  (internal/hub proto)
//	POST /v1/sync       push deltas, pull merged corpus diff (binary frames)
//	GET  /v1/stats      aggregated live stats (JSON)
//	GET  /v1/crashes    global deduplicated crash table (JSON)
//	GET  /metrics       Prometheus text exposition (disable with -metrics=false)
//	GET  /healthz       liveness probe
//
// Usage:
//
//	syzhub -store /var/lib/syzhub/corpus
//	syzhub -addr 127.0.0.1:7700 -store /tmp/hub -cap 1024 -v
//	syzhub -store /tmp/leaf -addr 127.0.0.1:7701 \
//	    -parent http://127.0.0.1:7700 -parent-name rack-3
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/hub"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "listen address")
	storeDir := flag.String("store", "", "authoritative corpus store directory (required)")
	capacity := flag.Int("cap", 0, "merged corpus bound (0 = seedpool default)")
	scale := flag.Float64("scale", 1.0, "corpus scale (must match the workers')")
	statePath := flag.String("state", "", "hub state sidecar file (default <store>/hubstate.json)")
	maxInflight := flag.Int("max-inflight", 0, "sync backpressure: concurrent exchanges before 429 (0 = unlimited)")
	minSyncInterval := flag.Duration("min-sync-interval", 0, "per-worker sync rate limit (0 = unlimited)")
	parent := flag.String("parent", "", "root hub URL: run as a leaf and sync aggregates upward")
	parentName := flag.String("parent-name", "", "worker name this leaf registers under at the root (default leaf-<addr>)")
	parentInterval := flag.Duration("parent-interval", 15*time.Second, "upward sync period when -parent is set")
	metrics := flag.Bool("metrics", true, "serve Prometheus metrics on /metrics next to /v1/stats")
	flightDir := flag.String("flight-record", "", "dump the last telemetry events to DIR when a request fails")
	verbose := flag.Bool("v", false, "log every registration and sync")
	flag.Parse()

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "usage: syzhub -store DIR [-addr HOST:PORT] [-cap N] [-state PATH] [-parent URL] [-v]")
		os.Exit(2)
	}

	c := corpus.Build(corpus.Config{Scale: *scale})
	spec, err := c.WidestSuite()
	if err != nil {
		log.Fatal(err)
	}
	tgt, err := prog.Compile(spec, c.Env())
	if err != nil {
		log.Fatal(err)
	}
	store, err := corpusstore.Open(*storeDir)
	if err != nil {
		log.Fatal(err)
	}
	opts := []hub.Option{
		hub.WithCapacity(*capacity),
		hub.WithMaxInflight(*maxInflight),
		hub.WithMinSyncInterval(*minSyncInterval),
		hub.WithStatePath(*statePath),
	}
	if *parent != "" {
		opts = append(opts, hub.WithParent(*parent))
	}
	if *metrics {
		opts = append(opts, hub.WithMetrics(telemetry.NewRegistry()))
	}
	if *flightDir != "" {
		opts = append(opts, hub.WithFlightRecorder(telemetry.NewFlightRecorder(*flightDir, 256, nil)))
	}
	if *verbose {
		opts = append(opts, hub.WithLog(log.Printf))
	}
	h, err := hub.New(tgt, store, opts...)
	if err != nil {
		log.Fatal(err)
	}
	st := h.Stats()
	log.Printf("syzhub: %d syscalls (fingerprint %s), store %s: %d seeds at generation %d",
		len(tgt.Syscalls), hub.Fingerprint(tgt), *storeDir, st.Seeds, st.Generation)

	srv := &http.Server{Addr: *addr, Handler: h.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdown, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdown)
	}()

	var parentDone chan struct{}
	if *parent != "" {
		name := *parentName
		if name == "" {
			name = "leaf-" + *addr
		}
		parentDone = make(chan struct{})
		go runParentLoop(ctx, h, *parent, name, tgt, *parentInterval, parentDone)
	}

	log.Printf("syzhub: listening on http://%s", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	if parentDone != nil {
		<-parentDone
	}
	final := h.Stats()
	log.Printf("syzhub: shut down: %d seeds, %d union cover, %d crashes from %d workers",
		final.Seeds, final.UnionCover, final.Crashes, len(final.Workers))
}

// runParentLoop periodically syncs the leaf's aggregate state up to
// the root hub, and releases the leaf's lease with one final sync on
// shutdown. Upward sync failures are logged and retried next tick —
// the leaf keeps serving its own workers through root outages.
func runParentLoop(ctx context.Context, h *hub.Hub, parentURL, name string, tgt *prog.Target, interval time.Duration, done chan<- struct{}) {
	defer close(done)
	// Dial lazily: the root may come up after the leaf, so registration
	// failures just retry on the next tick.
	var client *hub.Client
	dial := func(c context.Context) bool {
		if client != nil {
			return true
		}
		cl, err := hub.Dial(c, parentURL, name, tgt)
		if err != nil {
			log.Printf("syzhub: parent register: %v", err)
			return false
		}
		client = cl
		log.Printf("syzhub: registered with parent %s as %s", parentURL, cl.WorkerID())
		return true
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if !dial(ctx) {
				continue
			}
			if n, err := h.SyncParent(ctx, client, false); err != nil {
				log.Printf("syzhub: parent sync: %v", err)
			} else if n > 0 {
				log.Printf("syzhub: parent sync imported %d seeds", n)
			}
		case <-ctx.Done():
			shutdown, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if dial(shutdown) {
				if _, err := h.SyncParent(shutdown, client, true); err != nil {
					log.Printf("syzhub: final parent sync: %v", err)
				}
			}
			cancel()
			return
		}
	}
}
