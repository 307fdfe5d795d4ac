package hub

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// imageLog is the ordered log of one image-contract run.
type imageLog struct {
	t     *testing.T
	lines []string
}

func (l *imageLog) addf(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func short(data []byte) string {
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:8])
}

// dir logs a store directory as it is on disk right now: the manifest
// bytes, the sorted listing, and every file's content.
func (l *imageLog) dir(step, dir string) {
	l.t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	names, content := sha256.New(), sha256.New()
	manifest := "none"
	for _, e := range entries { // ReadDir sorts by name
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			l.t.Fatal(err)
		}
		fmt.Fprintf(names, "%s\n", e.Name())
		fmt.Fprintf(content, "%s %d\n%s", e.Name(), len(data), data)
		if e.Name() == "manifest.json" {
			manifest = short(data)
		}
	}
	l.addf("%s: manifest=%s files=%d listing=%x content=%x", step, manifest, len(entries), names.Sum(nil)[:8], content.Sum(nil)[:8])
}

// states logs loaded seed states in the order the store returned them.
func (l *imageLog) states(step string, seeds []seedpool.SeedState, rep *corpusstore.Report, gen int) {
	h := sha256.New()
	for _, s := range seeds {
		fmt.Fprintf(h, "%d %d %s\n%s", s.Prio, s.Bonus, s.Op, s.Prog.Serialize())
	}
	var skips []string
	for _, s := range rep.Skipped {
		skips = append(skips, s.File+": "+s.Reason)
	}
	l.addf("%s: seeds=%d states=%x loaded=%d cover=%d gen=%d skipped=%q", step, len(seeds), h.Sum(nil)[:8], rep.Loaded, rep.CoverBlocks, gen, skips)
}

// recordingTransport logs every /v1/sync reply body a hub.Client reads
// and hands it to tap, when set.
type recordingTransport struct {
	log  *imageLog
	name string
	tap  func(body []byte)
}

func (rt *recordingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.URL.Path != "/v1/sync" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	rt.log.response(rt.name, resp.StatusCode, body)
	if rt.tap != nil {
		rt.tap(body)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

func (l *imageLog) response(step string, code int, body []byte) {
	resp, err := DecodeSyncResponse(body)
	if code != http.StatusOK || err != nil {
		l.addf("%s: HTTP %d body=%s", step, code, short(body))
		return
	}
	l.addf("%s: body=%s bytes=%d gen=%d seeds=%d rejected=%d", step, short(body), len(body), resp.Generation, len(resp.Seeds), resp.RejectedSeeds)
}

// sync POSTs one raw sync request and logs the reply.
func (l *imageLog) sync(step, base string, req SyncRequest) {
	l.t.Helper()
	resp, err := http.Post(base+"/v1/sync", BinaryContentType, bytes.NewReader(EncodeSyncRequest(&req)))
	if err != nil {
		l.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		l.t.Fatal(err)
	}
	l.response(step, resp.StatusCode, body)
}

// stats logs GET /v1/stats; hide names the one thing in it that varies
// from run to run, the parent hub's listen address.
func (l *imageLog) stats(step, base string, hide ...string) {
	l.t.Helper()
	body := statsBytes(l.t, base)
	for _, h := range hide {
		body = bytes.ReplaceAll(body, []byte(h), []byte("PARENT"))
	}
	l.addf("%s: /v1/stats=%s %s", step, short(body), bytes.TrimSpace(body))
}

// sloppy rewrites canonical program text into a form Deserialize still
// accepts but Serialize would never produce: a comment line, no result
// prefixes, indentation, and decimal zeros.
func sloppy(t *testing.T, tgt *prog.Target, text string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# pushed by hand\n\n")
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if eq := strings.Index(line, " = "); eq > 0 && line[0] == 'r' {
			line = line[eq+3:]
		}
		b.WriteString("  " + strings.ReplaceAll(line, "0x0,", "0 ,") + "\n")
	}
	out := b.String()
	p, err := prog.Deserialize(tgt, out)
	if err != nil || p.Serialize() != text || out == text {
		t.Fatalf("sloppy text is not a non-canonical rendering of the program: %v\n%s", err, out)
	}
	return out
}

// TestImageContract pins what the corpus store writes and what the hub
// serves, byte for byte, across the operations that touch the stored
// corpus image: a scripted Save/Load sequence on one directory
// (manifest bytes, directory listing and file contents after every
// step) and a scripted hub session over real HTTP (every SyncResponse
// body and /v1/stats). testdata/image_contract.txt was recorded at the
// commit before the hub's store mirrors were replaced by the store
// handle's own image; re-recording it (-update) is a behaviour change
// and needs the same review as a fingerprint bump.
func TestImageContract(t *testing.T) {
	tgt := targetFor(t, "dm", "cec")
	log := &imageLog{t: t}
	gen := seedGen(prog.NewGen(tgt, 18))

	// Part 1: the store.
	seeds := gen(12, 3)
	dir := filepath.Join(t.TempDir(), "store")
	save := func(step string, st *corpusstore.Store, seeds []seedpool.SeedState, cover int) {
		t.Helper()
		if err := st.Save(seeds, cover); err != nil {
			t.Fatal(err)
		}
		log.dir(step, st.Dir())
	}
	load := func(step string, st *corpusstore.Store) []seedpool.SeedState {
		t.Helper()
		got, rep, err := st.Load(tgt)
		if err != nil {
			t.Fatal(err)
		}
		log.states(step, got, rep, -1)
		return got
	}
	diff := func(step string, st *corpusstore.Store, since int) {
		t.Helper()
		got, gen, rep, err := st.Diff(tgt, since)
		if err != nil {
			t.Fatal(err)
		}
		log.states(fmt.Sprintf("%s since=%d", step, since), got, rep, gen)
	}
	st := openStore(t, dir)
	save("save fresh", st, seeds[:6], 10)
	save("save unchanged", st, seeds[:6], 10)
	save("save one-new", st, seeds[:7], 11)
	save("save reweighted", st, append([]seedpool.SeedState{{Prog: seeds[3].Prog, Text: seeds[3].Text, Prio: 40, Op: "splice"}}, seeds[:7]...), 11)
	save("save evicting", st, corpusstore.Merge(6, seeds[:7], seeds[7:10]), 12)
	diff("diff", st, 0)
	diff("diff", st, 3)
	diff("diff", st, 5)
	load("load same handle", st)

	st = openStore(t, dir)
	held := load("reopen load", st)
	held = corpusstore.Merge(0, held, seeds[10:11])
	save("reopen save", st, held, 13)

	// A file that rots while no handle vouches for it: skipped and
	// reported by the next Load, rewritten by a Save that still holds
	// the program.
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, m.Seeds[2].File), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	log.dir("corrupted", dir)
	st = openStore(t, dir)
	load("corrupted load", st)
	save("corrupted save held", st, held, 13)
	load("healed load", st)

	// A manifest from before generations existed.
	legacy := filepath.Join(t.TempDir(), "legacy")
	st = openStore(t, legacy)
	var manifest strings.Builder
	manifest.WriteString(`{"version":1,"cover_blocks":9,"seeds":[`)
	for i, s := range seeds[:4] {
		text := s.Prog.Serialize()
		if err := os.WriteFile(filepath.Join(legacy, corpusstore.FileFor(text)), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			manifest.WriteString(",")
		}
		fmt.Fprintf(&manifest, `{"file":%q,"prio":%d}`, corpusstore.FileFor(text), s.Prio)
	}
	manifest.WriteString("]}\n")
	if err := os.WriteFile(filepath.Join(legacy, "manifest.json"), []byte(manifest.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	diff("legacy diff", st, 0)
	diff("legacy diff", st, 1)
	old := load("legacy load", st)
	save("legacy save", st, append(old, seeds[4]), 9)
	diff("legacy diff after save", st, 0)

	// Part 2: the hub.
	hubSession(t, tgt, log, gen, t.TempDir(), nil)

	path := filepath.Join("testdata", "image_contract.txt")
	text := strings.Join(log.lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := range want {
		if i >= len(log.lines) || log.lines[i] != want[i] {
			got := "<missing>"
			if i < len(log.lines) {
				got = log.lines[i]
			}
			t.Fatalf("image contract diverged at line %d:\n got %s\nwant %s", i+1, got, want[i])
		}
	}
	if len(log.lines) != len(want) {
		t.Fatalf("image log has %d lines, contract has %d; first extra: %s", len(log.lines), len(want), log.lines[len(want)])
	}
}

// imageNow is the image contract's fixed hub clock reading.
var (
	imageNow   = time.Unix(1_700_000_000, 0).UTC()
	imageClock = WithClock(func() time.Time { return imageNow })
)

// seedGen returns the image contract's seed generator over g: n seeds
// of 2-5 calls, with priorities, bonuses and operators cycling from
// prioBase.
func seedGen(g *prog.Gen) func(n, prioBase int) []seedpool.SeedState {
	ops := []string{"", "insert", "mutate-arg", "splice"}
	return func(n, prioBase int) []seedpool.SeedState {
		out := make([]seedpool.SeedState, n)
		for i := range out {
			p := g.Generate(2 + i%4).Detach()
			out[i] = seedpool.SeedState{
				Prog: p, Text: p.Serialize(), Prio: prioBase + (i*7)%13,
				Bonus: (i * 5) % 9, Op: ops[i%len(ops)],
			}
		}
		return out
	}
}

// hubSession is the image contract's scripted hub session, over real
// HTTP on the fixed clock, with its stores and sidecars under hubDir: a
// root hub, a leaf hub that syncs with it as a parent, and the root
// restarted from its store and sidecar. tp, when set, sees every event
// each hub applies. It returns the restarted root and the leaf.
func hubSession(t *testing.T, tgt *prog.Target, log *imageLog, gen func(n, prioBase int) []seedpool.SeedState, hubDir string, tp *tap) (root, leaf *Hub) {
	statePath := filepath.Join(hubDir, "hubstate.json")
	h, err := New(tgt, openStore(t, filepath.Join(hubDir, "store")), imageClock, WithStatePath(statePath), WithCapacity(1024))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(tp.wrap("root", h))
	defer srv.Close()
	register := func(base, name string) RegisterResponse {
		t.Helper()
		var reg RegisterResponse
		postJSON(t, base+"/v1/register", RegisterRequest{Version: ProtoVersion, Name: name, Fingerprint: Fingerprint(tgt)}, &reg)
		log.addf("register %s: id=%s lease=%s gen=%d seeds=%d", name, reg.WorkerID, reg.LeaseID, reg.Generation, reg.Seeds)
		return reg
	}
	w1, w2 := register(srv.URL, "alpha"), register(srv.URL, "beta")
	req := func(reg RegisterResponse, since int) SyncRequest {
		return SyncRequest{WorkerID: reg.WorkerID, LeaseID: reg.LeaseID, SinceGen: since}
	}
	batchA, batchB := gen(300, 2), gen(300, 4)

	// alpha: 300 seeds with a duplicate (heavier copy later in the
	// batch), an unparsable seed, a non-positive priority and a
	// non-canonical rendering of a program the batch already holds.
	push := req(w1, 0)
	push.Seeds = append(push.Seeds, batchA...)
	heavier := batchA[5]
	heavier.Prio += 50
	push.Seeds = append(push.Seeds, heavier,
		seedpool.SeedState{Text: "frob$nosuchcall(0x0)\n", Prio: 5},
		seedpool.SeedState{Text: batchA[6].Text, Prio: 0},
		seedpool.SeedState{Text: sloppy(t, tgt, batchA[7].Text), Prio: batchA[7].Prio + batchA[7].Bonus + 1, Op: "by-hand"})
	push.Stats = WorkerStats{Execs: 1000, Cover: 40, Crashes: 1, Ops: []fuzz.OpStat{{Name: "insert", Picks: 10, NewBlocks: 4}}}
	push.Crashes = []fuzz.CrashReport{{Title: "bug-a", Repro: sloppy(t, tgt, batchA[0].Text), Count: 2}}
	log.sync("alpha push 300+4", srv.URL, push)
	log.stats("after alpha push", srv.URL)

	// beta: 300 more, ten of them alpha's (five heavier, five lighter);
	// the pull from 0 must stop at the generation boundary MaxPullBatch
	// falls in.
	push = req(w2, 0)
	push.Seeds = append(push.Seeds, batchB...)
	for i := 0; i < 10; i++ {
		dup := batchA[20+i]
		if i < 5 {
			dup.Prio += 30
		} else {
			dup.Prio = 1
			dup.Bonus = 0
		}
		push.Seeds = append(push.Seeds, dup)
	}
	push.Stats = WorkerStats{Execs: 500, Cover: 30}
	push.Crashes = []fuzz.CrashReport{{Title: "bug-a", Repro: batchA[0].Text, Count: 3}, {Title: "bug-b", Repro: "not a program", Count: 1}}
	log.sync("beta push 300+10 pull since 0", srv.URL, push)
	log.sync("beta pull since 1", srv.URL, req(w2, 1))
	log.sync("beta pull since 2", srv.URL, req(w2, 2))
	log.sync("alpha pull since 1", srv.URL, req(w1, 1))
	log.sync("alpha pull since 99", srv.URL, req(w1, 99))
	retry := req(w1, 2)
	retry.Crashes = []fuzz.CrashReport{{Title: "bug-a", Repro: batchA[0].Text, Count: 2}}
	log.sync("alpha crash retry", srv.URL, retry)
	retry.Crashes[0].Count = 5
	log.sync("alpha crash grown", srv.URL, retry)
	nothing := req(w1, 2)
	nothing.Seeds = batchA[:3]
	log.sync("alpha re-push of stored seeds", srv.URL, nothing)
	log.stats("after exchanges", srv.URL)

	// gamma is a real Client: cover deltas and the pull decode.
	ctx := context.Background()
	rec := func(name string) ClientOption {
		return WithHTTPClient(&http.Client{Transport: &recordingTransport{log: log, name: name}})
	}
	gamma, err := Dial(ctx, srv.URL, "gamma", tgt, rec("gamma sync"))
	if err != nil {
		t.Fatal(err)
	}
	own := gen(4, 9)
	for i, cover := range [][]vkernel.BlockID{{1, 2, 3, 70000}, {1, 2, 3, 4, 5, 70000}, {1, 2, 3, 4, 5, 70000}} {
		pulled, err := gamma.Sync(ctx, fuzz.SyncState{
			Seeds: own[:2+i], Cover: coverOf(cover...), Execs: 100 * (i + 1),
			Crashes: []fuzz.CrashReport{{Title: "bug-c", Repro: own[0].Prog.Serialize(), Count: i + 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		log.addf("gamma sync %d: pulled=%d client gen=%d", i, len(pulled), gamma.gen)
	}
	log.stats("after gamma", srv.URL)

	// A leaf hub at the default capacity pushes its aggregate up and
	// pulls the root's corpus down. Its sidecar sits beside its store,
	// as the root's does, so the store listing logged below is the
	// store's own.
	leaf, err = New(tgt, openStore(t, filepath.Join(hubDir, "leaf")), imageClock, WithParent(srv.URL), WithCapacity(16),
		WithStatePath(filepath.Join(hubDir, "leaf-hubstate.json")))
	if err != nil {
		t.Fatal(err)
	}
	leafSrv := httptest.NewServer(tp.wrap("leaf", leaf))
	defer leafSrv.Close()
	lw := register(leafSrv.URL, "leaf-worker")
	push = req(lw, 0)
	push.Seeds = gen(20, 60)
	push.Stats = WorkerStats{Execs: 70, Cover: 5}
	push.Crashes = []fuzz.CrashReport{{Title: "bug-leaf", Repro: push.Seeds[0].Text, Count: 4}}
	log.sync("leaf worker push 20 into capacity 16", leafSrv.URL, push)
	more := req(lw, 1)
	more.Seeds = gen(3, 90)
	log.sync("leaf worker push 3 evicting", leafSrv.URL, more)
	log.sync("leaf worker pull since 0", leafSrv.URL, req(lw, 0))
	pt := &recordingTransport{log: log, name: "leaf parent sync"}
	if tp != nil {
		pt.tap = func(body []byte) { tp.add("leaf", "import", body) }
	}
	pc, err := Dial(ctx, srv.URL, "leaf-1", tgt, WithHTTPClient(&http.Client{Transport: pt}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		n, err := leaf.SyncParent(ctx, pc, false)
		if err != nil {
			t.Fatal(err)
		}
		log.addf("leaf parent sync %d: imported=%d", i, n)
		log.stats("leaf", leafSrv.URL, srv.URL)
	}
	log.sync("leaf worker pull since 2", leafSrv.URL, req(lw, 2))
	if _, err := leaf.SyncParent(ctx, pc, true); err != nil {
		t.Fatal(err)
	}
	log.stats("root after leaf", srv.URL)
	log.dir("root store", filepath.Join(hubDir, "store"))
	log.dir("leaf store", filepath.Join(hubDir, "leaf"))

	// Restart from store + sidecar: same view, leases still good.
	srv.Close()
	root, err = New(tgt, openStore(t, filepath.Join(hubDir, "store")), imageClock, WithStatePath(statePath), WithCapacity(1024))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(tp.wrap("restarted root", root))
	defer srv2.Close()
	log.stats("restarted", srv2.URL)
	log.sync("alpha pull since 2 after restart", srv2.URL, req(w1, 2))
	log.sync("beta pull since 0 after restart", srv2.URL, req(w2, 0))
	grown := req(w1, 4)
	grown.Crashes = []fuzz.CrashReport{{Title: "bug-a", Repro: batchA[0].Text, Count: 6}}
	grown.Seeds = gen(2, 70)
	grown.Final = true
	log.sync("alpha final after restart", srv2.URL, grown)
	log.stats("end", srv2.URL)
	for _, cr := range root.Crashes() {
		log.addf("crash %q repro=%s first=%s count=%d reports=%d workers=%d", cr.Title, short([]byte(cr.Repro)), cr.FirstWorker, cr.Count, cr.Reports, cr.Workers)
	}

	return root, leaf
}

// tapped is one event a hub applied in a hubSession: the body of a POST
// to path, or, for path "import", the parent's sync reply a leaf
// imported.
type tapped struct {
	hub, path string
	body      []byte
}

// tap records the events of a hubSession in the order the hubs applied
// them.
type tap struct {
	mu     sync.Mutex
	events []tapped
}

func (tp *tap) add(hub, path string, body []byte) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.events = append(tp.events, tapped{hub, path, body})
}

// wrap serves h, recording the body of every POST it serves.
func (tp *tap) wrap(name string, h *Hub) http.Handler {
	if tp == nil {
		return h.Handler()
	}
	next := h.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, _ := io.ReadAll(r.Body) // a short read fails the replay's decode
			tp.add(name, r.URL.Path, body)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		next.ServeHTTP(w, r)
	})
}

// hubImage renders what a hub leaves behind: its store directory, its
// sidecar and its /v1/stats.
func hubImage(t *testing.T, h *Hub) string {
	t.Helper()
	l := &imageLog{t: t}
	l.dir("store", h.store.Dir())
	w := httptest.NewRecorder()
	h.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	return fmt.Sprintf("%s\nsidecar: %s\nstats: %s", l.lines[0], sidecarBytes(t, h), w.Body.Bytes())
}

// TestApplyReplaysImageContract: the image contract's hub session, run
// once over HTTP and once as the same events handed to apply directly,
// leaves every hub's store directory, sidecar and /v1/stats
// byte-identical. The replay decodes each request as its handler does,
// applies it at the session's fixed clock, folds a served or failed sync
// with the measurement the handler takes on that clock (0 ns, and the
// request's wire length), and persists; a leaf's parent import is the
// reply its parent client read, parsed as the client parses it.
func TestApplyReplaysImageContract(t *testing.T) {
	tgt := targetFor(t, "dm", "cec")
	tp := &tap{}
	root, leaf := hubSession(t, tgt, &imageLog{t: t}, seedGen(prog.NewGen(tgt, 18)), t.TempDir(), tp)

	dir := t.TempDir()
	open := func(store, sidecar string, opts ...Option) *Hub {
		t.Helper()
		opts = append(opts, imageClock, WithStatePath(filepath.Join(dir, sidecar)))
		h, err := New(tgt, openStore(t, filepath.Join(dir, store)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	hubs := map[string]*Hub{
		"root": open("store", "hubstate.json", WithCapacity(1024)),
		"leaf": open("leaf", "leaf-hubstate.json", WithCapacity(16), WithParent(leaf.parentURL)),
	}
	for _, ev := range tp.events {
		h := hubs[ev.hub]
		if h == nil { // the root's restart
			h = open("store", "hubstate.json", WithCapacity(1024))
			hubs[ev.hub] = h
		}
		var event any
		switch ev.path {
		case "/v1/register":
			var req RegisterRequest
			if err := json.Unmarshal(ev.body, &req); err != nil {
				t.Fatal(err)
			}
			event = &req
		case "/v1/sync":
			req, err := DecodeSyncRequest(ev.body)
			if err != nil {
				t.Fatal(err)
			}
			event = req
		case "import":
			resp, err := DecodeSyncResponse(ev.body)
			if err != nil {
				t.Fatal(err)
			}
			var imported []seedpool.SeedState
			for _, s := range resp.Seeds {
				if p, err := prog.Deserialize(tgt, s.Text); err == nil {
					s.Prog, s.Text = p, p.Serialize()
					imported = append(imported, s)
				}
			}
			if len(imported) == 0 {
				continue
			}
			event = imported
		default:
			t.Fatalf("%s: unexpected event %s", ev.hub, ev.path)
		}
		h.mu.Lock()
		_, err := h.apply(imageNow, event)
		// The handlers' fold and persist: a refusal changes nothing, and
		// an import writes no sidecar.
		if se, _ := err.(*statusError); ev.path != "import" && (se == nil || se.code >= http.StatusInternalServerError) {
			if req, ok := event.(*SyncRequest); ok {
				h.observeSync(req.WorkerID, 0, int64(len(ev.body)))
			}
			h.persistLocked()
		}
		h.mu.Unlock()
		if err != nil && ev.path == "import" {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]*Hub{"restarted root": root, "leaf": leaf} {
		if got, want := hubImage(t, hubs[name]), hubImage(t, want); got != want {
			t.Errorf("%s replayed through apply:\n%s\nover HTTP:\n%s", name, got, want)
		}
	}
}
