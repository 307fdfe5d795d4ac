package prog

import "encoding/binary"

// ExecProg is the compiled, flat form of a Prog: one contiguous
// instruction array whose argument scalars are pre-evaluated, pointer
// payloads pre-encoded into a shared byte arena, and resource
// references lowered to plain indices into the executor's register
// file (the per-call fd table). Executors dispatch on it without
// touching the rich Value tree — no per-exec argument re-evaluation,
// no per-exec encoding, no allocation.
//
// An ExecProg is immutable between compilations. CompileExecInto
// recompiles in place, reusing the arenas, so a fuzzing loop can hold
// one ExecProg as scratch and compile every candidate into it; Gen()
// changes on every recompilation so executor-side caches (Cache) can
// detect staleness. An ExecProg and its cache are owned by one
// executor at a time — do not share one instance across concurrently
// running VMs.
type ExecProg struct {
	// Calls is the flat instruction stream, one entry per syscall.
	Calls []ExecCall
	// args and blob are the backing arenas; ExecCall.Args, ExecArg.Blob
	// and ExecCall.Path are subslices fixed up after the build (the
	// arenas may reallocate while compilation appends).
	args []ExecArg
	blob []byte
	gen  uint64
	// cache is the executor-owned resolution slot (see Cache).
	cache any
}

// ExecCall is one compiled syscall invocation.
type ExecCall struct {
	// Sc is the syscall descriptor (dispatch identity).
	Sc *Syscall
	// Args are the lowered arguments, a subslice of the program arena.
	Args []ExecArg
	// Path is the call's device-path bytes: the data of the first
	// pointer argument whose pointee is a non-empty string or buffer
	// (what the kernel's open dispatch matches on). Nil when the call
	// carries no such argument.
	Path []byte

	argOff, argN     int32
	pathOff, pathLen int32
}

// ExecArg is one lowered argument. Every field is pre-evaluated at
// compile time; executors read them directly.
type ExecArg struct {
	// Scalar is the argument's immediate value (Value.Scalar).
	Scalar uint64
	// Res is the register-file index of the producing call for
	// resource arguments (Value.ResultOf); -1 when the argument is not
	// a resource or carries no binding.
	Res int32
	// Blob is the pre-encoded pointee payload for pointer arguments
	// (a subslice of the program arena); nil when the argument is not
	// a pointer or points nowhere.
	Blob []byte

	blobOff, blobLen int32
}

// CompileExecInto lowers p into ep, reusing ep's arenas. Any previous
// contents (and any executor cache keyed to the previous generation)
// are invalidated. Only the calls p owns are encoded; a frozen call's
// pointer payloads are copied from the cache Prog.Freeze built, into
// ep's own arena like the rest, so ep never refers to p.
func CompileExecInto(p *Prog, ep *ExecProg) {
	ep.Calls = ep.Calls[:0]
	ep.args = ep.args[:0]
	ep.blob = ep.blob[:0]
	ep.gen++
	for _, c := range p.Calls {
		ec := ExecCall{Sc: c.Sc, argOff: int32(len(ep.args)), pathOff: -1}
		cached := c.lowered // a frozen call's payloads are copied, not encoded
		for _, a := range c.Args {
			ea := ExecArg{Res: -1, blobOff: -1}
			if a != nil {
				ea.Scalar = a.Scalar
				if a.Type.Kind == KindResource {
					ea.Res = int32(a.ResultOf)
				}
				if a.Type.Kind == KindPtr && a.Ptr != nil {
					off := len(ep.blob)
					if cached == nil {
						ep.blob = a.Ptr.encodeTo(ep.blob)
					} else {
						n := 4 + binary.LittleEndian.Uint32(cached)
						ep.blob = append(ep.blob, cached[4:n]...)
						cached = cached[n:]
					}
					ea.blobOff, ea.blobLen = int32(off), int32(len(ep.blob)-off)
					// The open path is the first non-empty string/buffer
					// pointee in argument order.
					if ec.pathOff < 0 && (a.Ptr.Type.Kind == KindString || a.Ptr.Type.Kind == KindBuffer) && len(a.Ptr.Data) > 0 {
						po := len(ep.blob)
						ep.blob = append(ep.blob, a.Ptr.Data...)
						ec.pathOff, ec.pathLen = int32(po), int32(len(a.Ptr.Data))
					}
				}
			}
			ep.args = append(ep.args, ea)
		}
		ec.argN = int32(len(ep.args)) - ec.argOff
		ep.Calls = append(ep.Calls, ec)
	}
	// The arenas are final; materialize the subslice views.
	for i := range ep.Calls {
		ec := &ep.Calls[i]
		ec.Args = ep.args[ec.argOff : ec.argOff+ec.argN : ec.argOff+ec.argN]
		if ec.pathOff >= 0 {
			ec.Path = ep.blob[ec.pathOff : ec.pathOff+ec.pathLen : ec.pathOff+ec.pathLen]
		} else {
			ec.Path = nil
		}
		for j := range ec.Args {
			ea := &ec.Args[j]
			if ea.blobOff >= 0 {
				ea.Blob = ep.blob[ea.blobOff : ea.blobOff+ea.blobLen : ea.blobOff+ea.blobLen]
			} else {
				ea.Blob = nil
			}
		}
	}
}

// Gen is the compilation generation counter: it changes every time
// the ExecProg is recompiled, invalidating executor caches.
func (ep *ExecProg) Gen() uint64 { return ep.gen }

// Cache returns the executor-owned resolution cache previously stored
// with SetCache, or nil. The slot lets an executor pre-resolve the
// program against its own dispatch tables once and reuse the result
// across runs; executors must validate the cached value against Gen()
// (and their own identity) before trusting it.
func (ep *ExecProg) Cache() any { return ep.cache }

// SetCache stores an executor-owned resolution cache on the program.
func (ep *ExecProg) SetCache(v any) { ep.cache = v }
