package hub

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/vkernel"
)

// Binary wire format
//
// /v1/sync exchanges travel as a compact binary frame stream, the
// endpoint's only encoding: requests are POSTed with Content-Type
// BinaryContentType (anything else is refused with 415) and every 200
// reply is encoded the same way. Streams decode to the
// SyncRequest/SyncResponse structs of proto.go.
//
// A stream is the 4-byte magic "SHB" + version, then length-prefixed
// frames until an end frame:
//
//	[1-byte frame type][uvarint payload length][payload]
//
// Seeds travel one frame each (the corpus diff streams per-seed
// instead of as one monolithic array), cover deltas as a single
// frame holding a vkernel compressed-bitmap container stream, and
// crashes one frame each. Integers inside payloads are varints
// (zigzag for the signed scheduling weights, uvarint for counters
// and lengths); strings are uvarint-length-prefixed bytes. Frames
// with unknown types are an error — the format is versioned, not
// extensible-by-skipping, so accidental format drift fails loudly
// (the golden-frame tests pin the bytes).
const (
	// BinaryContentType is the media type of /v1/sync bodies.
	BinaryContentType = "application/x-syzhub-bin"
	// JSONContentType is the media type of the control endpoint
	// (register), the monitoring views, and error replies.
	JSONContentType = "application/json"
)

// wireMagic starts every binary stream; the last byte is the wire
// version and tracks ProtoVersion.
var wireMagic = [4]byte{'S', 'H', 'B', ProtoVersion}

// Frame types.
const (
	frameReqHeader  = 0x01 // SyncRequest scalars + worker stats
	frameSeed       = 0x02 // one seed (either direction)
	frameCover      = 0x03 // vkernel.EncodeDelta cover payload
	frameCrash      = 0x04 // one crash report
	frameRespHeader = 0x05 // SyncResponse scalars
	frameEnd        = 0x06 // end of stream
)

// maxFramePayload bounds a single frame (a seed repro or crash text
// can be long, but nothing legitimate approaches this).
const maxFramePayload = 16 << 20

// appendString encodes a length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendInt zigzag-encodes a signed integer.
func appendInt(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

// Encoded sizes. Every frame's payload length is known before it is
// written, so an encoder writes each frame header ahead of its payload
// and sizes its output once.

// uvarintLen is the length of binary.AppendUvarint(nil, x).
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// intLen is the length of appendInt(nil, v).
func intLen(v int) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// stringLen is the length of appendString(nil, s).
func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// frameLen is the length of a frame with an n-byte payload.
func frameLen(n int) int { return 1 + uvarintLen(uint64(n)) + n }

// wireReader is a cursor over one frame payload (or the whole
// stream); its methods record the first error and no-op after it.
type wireReader struct {
	data []byte
	err  error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("hub wire: "+format, args...)
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *wireReader) int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.data = r.data[n:]
	return int(v)
}

func (r *wireReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)) {
		r.fail("string length %d overruns payload", n)
		return ""
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// frame reads one [type][len][payload] frame off the stream.
func (r *wireReader) frame() (byte, wireReader) {
	if r.err != nil {
		return 0, wireReader{err: r.err}
	}
	if len(r.data) < 1 {
		r.fail("truncated stream (missing end frame)")
		return 0, wireReader{err: r.err}
	}
	typ := r.data[0]
	r.data = r.data[1:]
	n := r.uvarint()
	if r.err == nil && (n > maxFramePayload || n > uint64(len(r.data))) {
		r.fail("frame payload %d overruns stream", n)
	}
	if r.err != nil {
		return 0, wireReader{err: r.err}
	}
	payload := wireReader{data: r.data[:n]}
	r.data = r.data[n:]
	return typ, payload
}

// done asserts the payload was fully consumed.
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.data) != 0 {
		return fmt.Errorf("hub wire: %d trailing bytes", len(r.data))
	}
	return nil
}

// appendFrameHeader writes the header of a frame whose n-byte payload
// follows.
func appendFrameHeader(dst []byte, typ byte, n int) []byte {
	return binary.AppendUvarint(append(dst, typ), uint64(n))
}

// seedLen is the payload length of st's seed frame.
func seedLen(st *seedpool.SeedState) int {
	return stringLen(st.Text) + intLen(st.Prio) + intLen(st.Bonus) + stringLen(st.Op)
}

// appendSeedFrame encodes one seed frame.
func appendSeedFrame(dst []byte, st *seedpool.SeedState) []byte {
	dst = appendFrameHeader(dst, frameSeed, seedLen(st))
	dst = appendString(dst, st.Text)
	dst = appendInt(dst, st.Prio)
	dst = appendInt(dst, st.Bonus)
	return appendString(dst, st.Op)
}

// crashLen is the payload length of cr's crash frame.
func crashLen(cr *fuzz.CrashReport) int {
	return stringLen(cr.Title) + stringLen(cr.Repro) + intLen(cr.Count)
}

// reqHeaderLen is the payload length of req's header frame.
func reqHeaderLen(req *SyncRequest) int {
	n := stringLen(req.WorkerID) + stringLen(req.LeaseID) + uvarintLen(uint64(req.SinceGen)) + 1 +
		intLen(req.Stats.Execs) + intLen(req.Stats.Cover) + intLen(req.Stats.Crashes) +
		uvarintLen(uint64(len(req.Stats.Ops)))
	for _, op := range req.Stats.Ops {
		n += stringLen(op.Name) + intLen(op.Picks) + intLen(op.NewBlocks)
	}
	return n
}

func readSeed(p *wireReader) (seedpool.SeedState, error) {
	st := seedpool.SeedState{Text: p.string()}
	st.Prio = p.int()
	st.Bonus = p.int()
	st.Op = p.string()
	return st, p.done()
}

// EncodeSyncRequest serializes a sync request as a binary frame
// stream into one buffer of exactly its length.
func EncodeSyncRequest(req *SyncRequest) []byte {
	hdr := reqHeaderLen(req)
	size := len(wireMagic) + frameLen(hdr) + frameLen(0)
	if len(req.CoverDelta) > 0 {
		size += frameLen(len(req.CoverDelta))
	}
	for i := range req.Seeds {
		size += frameLen(seedLen(&req.Seeds[i]))
	}
	for i := range req.Crashes {
		size += frameLen(crashLen(&req.Crashes[i]))
	}
	dst := make([]byte, 0, size)
	dst = append(dst, wireMagic[:]...)
	dst = appendFrameHeader(dst, frameReqHeader, hdr)
	dst = appendString(dst, req.WorkerID)
	dst = appendString(dst, req.LeaseID)
	dst = binary.AppendUvarint(dst, uint64(req.SinceGen))
	flags := byte(0)
	if req.Final {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = appendInt(dst, req.Stats.Execs)
	dst = appendInt(dst, req.Stats.Cover)
	dst = appendInt(dst, req.Stats.Crashes)
	dst = binary.AppendUvarint(dst, uint64(len(req.Stats.Ops)))
	for _, op := range req.Stats.Ops {
		dst = appendString(dst, op.Name)
		dst = appendInt(dst, op.Picks)
		dst = appendInt(dst, op.NewBlocks)
	}
	if len(req.CoverDelta) > 0 {
		dst = appendFrameHeader(dst, frameCover, len(req.CoverDelta))
		dst = append(dst, req.CoverDelta...)
	}
	for i := range req.Seeds {
		dst = appendSeedFrame(dst, &req.Seeds[i])
	}
	for i := range req.Crashes {
		cr := &req.Crashes[i]
		dst = appendFrameHeader(dst, frameCrash, crashLen(cr))
		dst = appendString(dst, cr.Title)
		dst = appendString(dst, cr.Repro)
		dst = appendInt(dst, cr.Count)
	}
	return appendFrameHeader(dst, frameEnd, 0)
}

// DecodeSyncRequest parses a binary sync request stream.
func DecodeSyncRequest(data []byte) (*SyncRequest, error) {
	r, err := openStream(data)
	if err != nil {
		return nil, err
	}
	req := &SyncRequest{}
	sawHeader, sawCover := false, false
	for {
		typ, p := r.frame()
		if r.err != nil {
			return nil, r.err
		}
		switch typ {
		case frameReqHeader:
			if sawHeader {
				return nil, fmt.Errorf("hub wire: duplicate request header")
			}
			sawHeader = true
			req.WorkerID = p.string()
			req.LeaseID = p.string()
			req.SinceGen = int(p.uvarint())
			if p.err == nil && len(p.data) >= 1 {
				req.Final = p.data[0]&1 != 0
				p.data = p.data[1:]
			} else {
				p.fail("missing flags byte")
			}
			req.Stats.Execs = p.int()
			req.Stats.Cover = p.int()
			req.Stats.Crashes = p.int()
			nops := p.uvarint()
			if p.err == nil && nops > uint64(len(p.data)) {
				p.fail("op count %d overruns payload", nops)
			}
			for i := uint64(0); i < nops && p.err == nil; i++ {
				op := fuzz.OpStat{Name: p.string()}
				op.Picks = p.int()
				op.NewBlocks = p.int()
				req.Stats.Ops = append(req.Stats.Ops, op)
			}
			if err := p.done(); err != nil {
				return nil, err
			}
		case frameCover:
			if sawCover {
				return nil, fmt.Errorf("hub wire: duplicate cover frame")
			}
			sawCover = true
			// ApplyDelta applies as it parses: validate the whole stream
			// here so the hub never half-applies a malformed one.
			if err := vkernel.DecodeDelta(p.data, func(vkernel.BlockID) {}); err != nil {
				return nil, fmt.Errorf("hub wire: %w", err)
			}
			req.CoverDelta = p.data
		case frameSeed:
			st, err := readSeed(&p)
			if err != nil {
				return nil, err
			}
			req.Seeds = append(req.Seeds, st)
		case frameCrash:
			cr := fuzz.CrashReport{Title: p.string()}
			cr.Repro = p.string()
			cr.Count = p.int()
			if err := p.done(); err != nil {
				return nil, err
			}
			req.Crashes = append(req.Crashes, cr)
		case frameEnd:
			if err := p.done(); err != nil {
				return nil, err
			}
			if !sawHeader {
				return nil, fmt.Errorf("hub wire: stream without request header")
			}
			if err := r.done(); err != nil {
				return nil, err
			}
			return req, nil
		default:
			return nil, fmt.Errorf("hub wire: unknown frame type %#x", typ)
		}
	}
}

// EncodeSyncResponse serializes a sync response as a binary frame
// stream into one buffer of exactly its length.
func EncodeSyncResponse(resp *SyncResponse) []byte {
	hdr := uvarintLen(uint64(resp.Generation)) + intLen(resp.RejectedSeeds) + uvarintLen(uint64(resp.LeaseTTLMs))
	size := len(wireMagic) + frameLen(hdr) + frameLen(0)
	for i := range resp.Seeds {
		size += frameLen(seedLen(&resp.Seeds[i]))
	}
	dst := make([]byte, 0, size)
	dst = append(dst, wireMagic[:]...)
	dst = appendFrameHeader(dst, frameRespHeader, hdr)
	dst = binary.AppendUvarint(dst, uint64(resp.Generation))
	dst = appendInt(dst, resp.RejectedSeeds)
	dst = binary.AppendUvarint(dst, uint64(resp.LeaseTTLMs))
	for i := range resp.Seeds {
		dst = appendSeedFrame(dst, &resp.Seeds[i])
	}
	return appendFrameHeader(dst, frameEnd, 0)
}

// DecodeSyncResponse parses a binary sync response stream.
func DecodeSyncResponse(data []byte) (*SyncResponse, error) {
	r, err := openStream(data)
	if err != nil {
		return nil, err
	}
	resp := &SyncResponse{}
	sawHeader := false
	for {
		typ, p := r.frame()
		if r.err != nil {
			return nil, r.err
		}
		switch typ {
		case frameRespHeader:
			if sawHeader {
				return nil, fmt.Errorf("hub wire: duplicate response header")
			}
			sawHeader = true
			resp.Generation = int(p.uvarint())
			resp.RejectedSeeds = p.int()
			resp.LeaseTTLMs = int64(p.uvarint())
			if err := p.done(); err != nil {
				return nil, err
			}
		case frameSeed:
			st, err := readSeed(&p)
			if err != nil {
				return nil, err
			}
			resp.Seeds = append(resp.Seeds, st)
		case frameEnd:
			if err := p.done(); err != nil {
				return nil, err
			}
			if !sawHeader {
				return nil, fmt.Errorf("hub wire: stream without response header")
			}
			if err := r.done(); err != nil {
				return nil, err
			}
			return resp, nil
		default:
			return nil, fmt.Errorf("hub wire: unknown frame type %#x", typ)
		}
	}
}

// openStream validates the stream magic and version.
func openStream(data []byte) (wireReader, error) {
	if len(data) < len(wireMagic) {
		return wireReader{}, fmt.Errorf("hub wire: stream shorter than magic")
	}
	if data[0] != 'S' || data[1] != 'H' || data[2] != 'B' {
		return wireReader{}, fmt.Errorf("hub wire: bad magic")
	}
	if data[3] != ProtoVersion {
		return wireReader{}, fmt.Errorf("hub wire: protocol version %d not supported (this build speaks %d)", data[3], ProtoVersion)
	}
	return wireReader{data: data[len(wireMagic):]}, nil
}
