package hub

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

func mustJSONLen(t *testing.T, v any) int {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return len(data)
}

var updateGolden = flag.Bool("update", false, "rewrite golden wire frames")

// goldenSyncRequest is a fixed, fully populated request: every frame
// type, signed and unsigned varints, multi-container cover.
func goldenSyncRequest() *SyncRequest {
	return &SyncRequest{
		WorkerID: "w7",
		LeaseID:  "L7.1a2b3c",
		SinceGen: 42,
		Seeds: []seedpool.SeedState{
			{Text: "r0 = open(dev)\nioctl(r0, CMD, 3)\n", Prio: 120, Bonus: -4, Op: "splice"},
			{Text: "mmap(kvm)\n", Prio: 1},
		},
		CoverDelta: coverOf(1, 2, 3, 900, 70000, 70001, 1<<20).EncodeDelta(nil),
		Crashes: []fuzz.CrashReport{
			{Title: "KASAN: use-after-free in dm_resume", Repro: "r0 = open(dev)\n", Count: 3},
		},
		Stats: WorkerStats{
			Execs: 5000, Cover: 321, Crashes: 1,
			Ops: []fuzz.OpStat{{Name: "insert", Picks: 10, NewBlocks: 4}, {Name: "splice", Picks: 7}},
		},
		Final: true,
	}
}

// edgeSyncRequest puts every integer field at a varint length edge
// (zero, -1, the extremes, one past a byte) and a string whose length
// prefix takes two bytes, where an encoder's size arithmetic would
// slip.
func edgeSyncRequest() *SyncRequest {
	return &SyncRequest{
		WorkerID: strings.Repeat("w", 128),
		SinceGen: math.MaxInt,
		Seeds: []seedpool.SeedState{
			{Text: strings.Repeat("x", 200), Prio: -1, Bonus: math.MinInt},
			{Prio: math.MaxInt, Bonus: 64, Op: "o"},
			{Prio: -65, Bonus: 63},
		},
		CoverDelta: coverOf(5).EncodeDelta(nil),
		Crashes:    []fuzz.CrashReport{{Title: "t", Count: -1}, {Repro: strings.Repeat("r", 1<<14), Count: 1 << 20}},
		Stats: WorkerStats{
			Execs: math.MinInt, Cover: -64, Crashes: 127,
			Ops: []fuzz.OpStat{{Name: "", Picks: 128, NewBlocks: -128}},
		},
	}
}

func goldenSyncResponse() *SyncResponse {
	return &SyncResponse{
		Generation: 43,
		Seeds: []seedpool.SeedState{
			{Text: "close(r0)\n", Prio: 55, Bonus: 2, Op: "insert"},
		},
		RejectedSeeds: 1,
		LeaseTTLMs:    60000,
	}
}

// checkGolden compares encoded bytes to the checked-in frame file, so
// accidental wire-format changes fail review explicitly.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire format drifted from %s:\n got %x\nwant %x\nIf the change is intentional, bump the wire version and regenerate with -update.", path, got, want)
	}
}

func TestWireSyncRequestGolden(t *testing.T) {
	enc := EncodeSyncRequest(goldenSyncRequest())
	checkGolden(t, "sync_request.bin", enc)
	dec, err := DecodeSyncRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, goldenSyncRequest()) {
		t.Fatalf("decode mismatch:\n got %+v\nwant %+v", dec, goldenSyncRequest())
	}
}

func TestWireSyncResponseGolden(t *testing.T) {
	enc := EncodeSyncResponse(goldenSyncResponse())
	checkGolden(t, "sync_response.bin", enc)
	dec, err := DecodeSyncResponse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, goldenSyncResponse()) {
		t.Fatalf("decode mismatch:\n got %+v\nwant %+v", dec, goldenSyncResponse())
	}
}

// TestWireCarriesOnlyItsFields: the stream names the fields it writes,
// so the campaign-side fields of the records a sync carries — a seed's
// Prog, a crash's FirstExec — change no byte of it and never come back
// out of a decode.
func TestWireCarriesOnlyItsFields(t *testing.T) {
	g := prog.NewGen(targetFor(t, "dm"), 1)
	req, resp := goldenSyncRequest(), goldenSyncResponse()
	for i := range req.Seeds {
		req.Seeds[i].Prog = g.Generate(3).Detach()
	}
	for i := range req.Crashes {
		req.Crashes[i].FirstExec = 77 + i
	}
	resp.Seeds[0].Prog = g.Generate(3).Detach()
	reqEnc, respEnc := EncodeSyncRequest(req), EncodeSyncResponse(resp)
	if !bytes.Equal(reqEnc, EncodeSyncRequest(goldenSyncRequest())) {
		t.Error("a seed's Prog or a crash's FirstExec changed the request bytes")
	}
	if !bytes.Equal(respEnc, EncodeSyncResponse(goldenSyncResponse())) {
		t.Error("a seed's Prog changed the response bytes")
	}
	decReq, err := DecodeSyncRequest(reqEnc)
	if err != nil {
		t.Fatal(err)
	}
	decResp, err := DecodeSyncResponse(respEnc)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range append(decReq.Seeds, decResp.Seeds...) {
		if st.Prog != nil {
			t.Errorf("decoded seed %q carries a program", st.Text)
		}
	}
	for _, cr := range decReq.Crashes {
		if cr.FirstExec != 0 {
			t.Errorf("decoded crash %q carries FirstExec %d", cr.Title, cr.FirstExec)
		}
	}
}

func TestWireEmptyRequest(t *testing.T) {
	req := &SyncRequest{WorkerID: "w1"}
	dec, err := DecodeSyncRequest(EncodeSyncRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, req) {
		t.Fatalf("decode mismatch: got %+v", dec)
	}
}

func TestWireSmallerThanJSON(t *testing.T) {
	// The acceptance criterion in miniature: a representative sync
	// must be measurably smaller on the binary wire than in JSON.
	// The JSON protocol this wire replaced listed new blocks by ID; the
	// request struct now carries them in wire form already, so the JSON
	// side of the comparison spells the list out. The struct has no JSON
	// tags any more, so its JSON form uses the Go field names: 503 bytes
	// for the golden request without its cover, where the replaced
	// protocol's took 444.
	jsonLen := func(req *SyncRequest) int {
		var blocks []vkernel.BlockID
		if err := vkernel.DecodeDelta(req.CoverDelta, func(b vkernel.BlockID) { blocks = append(blocks, b) }); err != nil {
			t.Fatal(err)
		}
		listed := *req
		listed.CoverDelta = nil
		return mustJSONLen(t, listed) + mustJSONLen(t, blocks)
	}
	req := goldenSyncRequest()
	cover := coverOf(1, 2, 3, 900, 70000, 70001, 1<<20)
	for b := vkernel.BlockID(5000); b < 6000; b++ {
		cover.Add(b)
	}
	req.CoverDelta = cover.EncodeDelta(nil)
	bin := EncodeSyncRequest(req)
	jsonBytes := jsonLen(req)
	if len(bin)*2 > jsonBytes {
		t.Fatalf("binary encoding %dB not under half of JSON %dB", len(bin), jsonBytes)
	}
	// The same on the checked-in frame: this test is the one place the
	// binary-vs-JSON saving is pinned (the hub no longer re-encodes
	// every request as JSON to report a live ratio).
	golden, err := os.ReadFile(filepath.Join("testdata", "sync_request.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSyncRequest(golden)
	if err != nil {
		t.Fatal(err)
	}
	if goldenJSON := jsonLen(dec); len(golden)*2 > goldenJSON {
		t.Fatalf("golden sync_request.bin is %dB, not under half of its JSON form %dB", len(golden), goldenJSON)
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	enc := EncodeSyncRequest(goldenSyncRequest())
	cases := map[string][]byte{
		"empty":         {},
		"bad-magic":     append([]byte{'X'}, enc[1:]...),
		"bad-version":   {'S', 'H', 'B', 0x7F},
		"no-frames":     enc[:4],
		"truncated":     enc[:len(enc)-3],
		"trailing":      append(append([]byte{}, enc...), 0x00),
		"unknown-frame": append(append([]byte{}, enc[:4]...), 0x7E, 0x00),
	}
	for name, data := range cases {
		if _, err := DecodeSyncRequest(data); err == nil {
			t.Errorf("%s: decode accepted malformed request", name)
		}
	}
	if _, err := DecodeSyncResponse(EncodeSyncRequest(goldenSyncRequest())); err == nil {
		t.Error("response decoder accepted a request stream")
	}
}

// FuzzWireSyncRequest checks the codec identity both ways: anything
// the decoder accepts must survive encode→decode unchanged, and the
// re-encoding must be stable (second generation equals first).
// TestWireEncodersSizeExactly: the encoders size their output from
// per-frame length arithmetic before writing it, so a slip there writes
// a wrong frame length. For the golden exchange and one at every varint
// edge, each encoding must fill its buffer exactly and decode back to
// what was encoded.
func TestWireEncodersSizeExactly(t *testing.T) {
	edge := edgeSyncRequest()
	for _, req := range []*SyncRequest{goldenSyncRequest(), edge, {}} {
		enc := EncodeSyncRequest(req)
		if len(enc) != cap(enc) {
			t.Errorf("request encoder sized %d bytes for a %d-byte stream", cap(enc), len(enc))
		}
		if got, err := DecodeSyncRequest(enc); err != nil || !reflect.DeepEqual(got, req) {
			t.Errorf("request round trip: err %v\n got %+v\nwant %+v", err, got, req)
		}
	}
	for _, resp := range []*SyncResponse{
		goldenSyncResponse(),
		{Generation: math.MaxInt, RejectedSeeds: -1, LeaseTTLMs: 1 << 40, Seeds: edge.Seeds},
		{},
	} {
		enc := EncodeSyncResponse(resp)
		if len(enc) != cap(enc) {
			t.Errorf("response encoder sized %d bytes for a %d-byte stream", cap(enc), len(enc))
		}
		if got, err := DecodeSyncResponse(enc); err != nil || !reflect.DeepEqual(got, resp) {
			t.Errorf("response round trip: err %v\n got %+v\nwant %+v", err, got, resp)
		}
	}
}

func FuzzWireSyncRequest(f *testing.F) {
	f.Add(EncodeSyncRequest(goldenSyncRequest()))
	f.Add(EncodeSyncRequest(&SyncRequest{}))
	f.Add(EncodeSyncRequest(edgeSyncRequest()))
	f.Add([]byte{'S', 'H', 'B', ProtoVersion, frameEnd, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSyncRequest(data)
		if err != nil {
			return
		}
		enc := EncodeSyncRequest(req)
		if len(enc) != cap(enc) {
			t.Fatalf("request encoder sized %d bytes for a %d-byte stream", cap(enc), len(enc))
		}
		req2, err := DecodeSyncRequest(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(req, req2) {
			t.Fatalf("encode->decode not identity:\n got %+v\nwant %+v", req2, req)
		}
		if enc2 := EncodeSyncRequest(req2); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding unstable: %x vs %x", enc, enc2)
		}
	})
}

func FuzzWireSyncResponse(f *testing.F) {
	f.Add(EncodeSyncResponse(goldenSyncResponse()))
	f.Add(EncodeSyncResponse(&SyncResponse{}))
	f.Add(EncodeSyncResponse(&SyncResponse{Generation: math.MaxInt, RejectedSeeds: -1, LeaseTTLMs: 1 << 40, Seeds: edgeSyncRequest().Seeds}))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeSyncResponse(data)
		if err != nil {
			return
		}
		enc := EncodeSyncResponse(resp)
		if len(enc) != cap(enc) {
			t.Fatalf("response encoder sized %d bytes for a %d-byte stream", cap(enc), len(enc))
		}
		resp2, err := DecodeSyncResponse(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(resp, resp2) {
			t.Fatalf("encode->decode not identity:\n got %+v\nwant %+v", resp2, resp)
		}
		if enc2 := EncodeSyncResponse(resp2); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding unstable: %x vs %x", enc, enc2)
		}
	})
}
