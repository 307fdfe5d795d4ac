package prog

import "encoding/binary"

// slab bump-allocates []T from fixed-capacity chunks. Chunks are
// never grown in place, so issued slices stay valid until reset;
// reset rewinds every chunk without freeing it, so a reused slab
// reaches a steady state in which alloc never touches the heap.
// Issued memory is NOT zeroed: it holds whatever the previous cycle
// left, and every caller overwrites all of what it is handed.
type slab[T any] struct {
	// cur is the chunk being filled; len(cur) is the used part.
	cur []T
	// rest holds the other chunks: rest[:next] were filled this cycle,
	// rest[next:] are rewound and free.
	rest [][]T
	next int
}

// alloc carves n elements, capped at n so that an append by the
// caller reallocates instead of clobbering a neighbour. A new chunk
// holds max(n, chunk) elements.
func (s *slab[T]) alloc(n, chunk int) []T {
	for {
		if i := len(s.cur); i+n <= cap(s.cur) {
			s.cur = s.cur[:i+n]
			return s.cur[i : i+n : i+n]
		}
		if s.next < len(s.rest) {
			s.cur, s.rest[s.next] = s.rest[s.next], s.cur
			s.next++
			continue
		}
		if cap(s.cur) > 0 {
			s.rest = append(s.rest, s.cur)
			s.next++
		}
		if chunk < n {
			chunk = n
		}
		s.cur = make([]T, 0, chunk)
	}
}

func (s *slab[T]) reset() {
	s.cur = s.cur[:0]
	for i := 0; i < s.next; i++ {
		s.rest[i] = s.rest[i][:0]
	}
	s.next = 0
}

// Chunk sizes, in elements. A dm+cec candidate is ~50 nodes and ~4 KB
// of data, most of it runs, so a Gen's arena settles at a chunk or two
// per slab.
const (
	nodeChunk    = 256
	ptrChunk     = 1024
	dataChunk    = 8192
	callChunk    = 32
	callPtrChunk = 64
)

// arena is the one allocator programs are built from: Value nodes,
// Fields/Args pointer slices, Data payload bytes, Call structs, the
// Calls backing array and the Prog header. Prog.Clone and Prog.Detach
// use a fresh arena per copy, presized by reserve to what the copy owns
// (every call for Clone, the unfrozen ones for Detach), and never reset
// it: the copy owns its arena and the garbage collector frees both
// together.
// A Gen owns one arena for its lifetime and resets it at the top of
// Generate/Mutate/MutateOp, so every candidate it returns is scratch
// that the next such call overwrites (see Prog.Detach). A pooled
// deserializer owns one too and resets it at every parse: Deserialize
// copies the parsed program out of it as Clone would, and Canonical
// renders it and keeps nothing.
type arena struct {
	nodes    slab[Value]
	ptrs     slab[*Value]
	data     slab[byte]
	calls    slab[Call]
	callPtrs slab[*Call]
	prog     Prog
}

func (a *arena) reset() {
	a.nodes.reset()
	a.ptrs.reset()
	a.data.reset()
	a.calls.reset()
	a.callPtrs.reset()
}

// newProg returns the arena's (single) program header, empty, with
// room for ncalls calls before appendCall has to move the backing.
func (a *arena) newProg(ncalls int, scratch bool) *Prog {
	a.prog = Prog{Calls: a.callPtrs.alloc(ncalls, callPtrChunk)[:0], scratch: scratch}
	return &a.prog
}

// node returns an uninitialized value node; the caller assigns all of
// it.
func (a *arena) node() *Value {
	return &a.nodes.alloc(1, nodeChunk)[0]
}

// fields carves an n-element pointer slice (nil for n == 0).
func (a *arena) fields(n int) []*Value {
	if n == 0 {
		return nil
	}
	return a.ptrs.alloc(n, ptrChunk)
}

// bytes carves an n-byte payload (nil for n == 0).
func (a *arena) bytes(n int) []byte {
	if n == 0 {
		return nil
	}
	return a.data.alloc(n, dataChunk)
}

// call returns a call to sc with nargs unset argument slots.
func (a *arena) call(sc *Syscall, nargs int) *Call {
	c := &a.calls.alloc(1, callChunk)[0]
	*c = Call{Sc: sc, Args: a.fields(nargs)}
	return c
}

// appendField is append(fs, v) with the grown slice taken from the
// arena.
func (a *arena) appendField(fs []*Value, v *Value) []*Value {
	out := a.ptrs.alloc(len(fs)+1, ptrChunk)
	copy(out, fs)
	out[len(fs)] = v
	return out
}

// appendElem is the run data with element x appended, the grown slice
// taken from the arena.
func (a *arena) appendElem(data []byte, x uint64) []byte {
	out := a.bytes(len(data) + 8)
	copy(out, data)
	binary.LittleEndian.PutUint64(out[len(data):], x)
	return out
}

// appendCall is append(calls, c); a full backing array moves to a
// doubled one from the arena.
func (a *arena) appendCall(calls []*Call, c *Call) []*Call {
	if len(calls) == cap(calls) {
		grown := a.callPtrs.alloc(2*len(calls)+4, callPtrChunk)
		calls = grown[:copy(grown, calls)]
	}
	return append(calls, c)
}

// shallow returns a copy of v the holder of the arena may write: the
// node, its Fields slice (still pointing at v's children) and its Data.
func (a *arena) shallow(v *Value) *Value {
	c := a.node()
	*c = *v
	c.Data = a.bytes(len(v.Data))
	copy(c.Data, v.Data)
	c.Fields = a.fields(len(v.Fields))
	copy(c.Fields, v.Fields)
	return c
}

// ownLens makes the len members of a struct copy (or, for fields ==
// c.Sc.Args, the len arguments of a call copy) writable, so FixupLens
// can follow a size change below it.
func (a *arena) ownLens(fields []Field, vals []*Value) {
	for i, f := range fields {
		if f.Type.Kind == KindLen && i < len(vals) && vals[i] != nil {
			vals[i] = a.shallow(vals[i])
		}
	}
}

// pathCopy finds target under v and copies the spine from v down to it,
// each spine struct's len members included. It returns the copy of v
// and the copy of target (nil, nil when target is not under v);
// everything off the spine stays shared with v.
func (a *arena) pathCopy(v, target *Value) (root, hit *Value) {
	switch {
	case v == nil:
		return nil, nil
	case v == target:
		root = a.shallow(v)
		return root, root
	}
	if sub, hit := a.pathCopy(v.Ptr, target); hit != nil {
		root = a.shallow(v)
		root.Ptr = sub
		return root, hit
	}
	for i, f := range v.Fields {
		if sub, hit := a.pathCopy(f, target); hit != nil {
			root = a.shallow(v)
			root.Fields[i] = sub
			if v.Type.Kind == KindStruct {
				a.ownLens(v.Type.Fields, root.Fields)
			}
			return root, hit
		}
	}
	return nil, nil
}

// rebind passes every resource value under v, in walk order, to bind
// and gives the value the binding it returns. A value whose binding
// changes is copied along with the spine above it — once, however many
// bindings change below a node — and the copy of v is returned; v
// itself when nothing changed. Subtrees that cannot hold a resource
// are not entered.
func (a *arena) rebind(v *Value, bind func(*Value) int) *Value {
	if v == nil || !v.Type.holds.has(KindResource) {
		return v
	}
	c := v
	if v.Type.Kind == KindResource {
		if r := bind(v); r != v.ResultOf {
			c = a.shallow(v)
			c.ResultOf = r
		}
		return c
	}
	if sub := a.rebind(v.Ptr, bind); sub != v.Ptr {
		c = a.shallow(v)
		c.Ptr = sub
	}
	for i, f := range v.Fields {
		if sub := a.rebind(f, bind); sub != f {
			if c == v {
				c = a.shallow(v)
			}
			c.Fields[i] = sub
		}
	}
	return c
}

// cloneValue deep-copies one value tree into the arena.
func (a *arena) cloneValue(v *Value) *Value {
	if v == nil {
		return nil
	}
	c := a.node()
	*c = *v
	c.Data = a.bytes(len(v.Data))
	copy(c.Data, v.Data)
	c.Fields = a.fields(len(v.Fields))
	for i, f := range v.Fields {
		c.Fields[i] = a.cloneValue(f)
	}
	c.Ptr = a.cloneValue(v.Ptr)
	return c
}

// cloneCall deep-copies one call into the arena; the copy is owned,
// whether or not c is frozen.
func (a *arena) cloneCall(c *Call) *Call {
	nc := a.call(c.Sc, len(c.Args))
	for i, arg := range c.Args {
		nc.Args[i] = a.cloneValue(arg)
	}
	return nc
}

// share returns what a candidate holds for call c of a seed or donor:
// c itself when it is frozen, an owned deep copy otherwise.
func (a *arena) share(c *Call) *Call {
	if c.lowered != nil {
		return c
	}
	return a.cloneCall(c)
}

// cloneProg copies p into the arena as a heap-owned program: every call
// deep-copied, or, with keepFrozen, only the owned ones — a frozen call
// is read-only for good and is kept by pointer (share).
func (a *arena) cloneProg(p *Prog, keepFrozen bool) *Prog {
	c := a.newProg(len(p.Calls), false)
	for _, call := range p.Calls {
		if keepFrozen {
			c.Calls = append(c.Calls, a.share(call))
		} else {
			c.Calls = append(c.Calls, a.cloneCall(call))
		}
	}
	return c
}

// reserve sizes a fresh arena's first chunks to hold exactly what
// cloneProg(p, keepFrozen) copies, so a copy costs one allocation per
// slab it uses.
func (a *arena) reserve(p *Prog, keepFrozen bool) {
	var nodes, ptrs, data, calls int
	for _, c := range p.Calls {
		if keepFrozen && c.lowered != nil {
			continue
		}
		calls++
		ptrs += len(c.Args)
		c.ForEachValue(func(v *Value) {
			nodes++
			ptrs += len(v.Fields)
			data += len(v.Data)
		})
	}
	a.nodes.cur = make([]Value, 0, nodes)
	a.ptrs.cur = make([]*Value, 0, ptrs)
	a.data.cur = make([]byte, 0, data)
	a.calls.cur = make([]Call, 0, calls)
	a.callPtrs.cur = make([]*Call, 0, len(p.Calls))
}
