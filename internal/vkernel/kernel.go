// Package vkernel is the virtual Linux kernel the fuzzer executes
// against: syscall dispatch for the synthetic drivers and sockets,
// per-handler basic-block coverage, stateful planted bugs, and
// sanitizer-style crash reports. It plays the role of the paper's
// QEMU-booted kernel: coverage and crashes are mediated entirely by
// how well the fuzzer's specifications match the handlers' ground
// truth (device paths, command values, payload layouts, resource
// dependencies).
package vkernel

import (
	"fmt"

	"kernelgpt/internal/corpus"
)

// BlockID identifies one basic block in the virtual kernel.
type BlockID = uint32

// Kernel is the immutable, shareable kernel image: block numbering,
// per-handler dispatch tables, and ground-truth layouts. Executors
// (one per fuzzing "VM") carry the mutable state.
type Kernel struct {
	// byPath maps device paths to driver handlers.
	byPath map[string]*khandler
	// byDomain maps socket domain values to socket handlers.
	byDomain map[int]*khandler
	// byName maps handler names (for secondary-resource creation).
	byName map[string]*khandler
	// TotalBlocks is the number of assigned basic blocks.
	TotalBlocks uint32
	// genericBlocks cover the shared syscall-entry paths.
	genericBlocks map[string]BlockID
	// pipe and epoll are the builtin pseudo-handlers behind the fd
	// plumbing syscalls; their fds flow through the same fd table as
	// driver fds (dup them, watch them, read/write the pipe).
	pipe, epoll *khandler
	// plumb names the builtin plumbing blocks: pipe read/write paths
	// and the epoll ctl/wait/ready paths.
	plumb map[string]BlockID
	// histWords sizes the per-exec history bitset (one bit per
	// handler/operation pair, pre-assigned at build).
	histWords int
}

// khandler is the kernel-side view of one operation handler.
type khandler struct {
	h *corpus.Handler
	// lo/hi bound the handler's contiguous block range.
	lo, hi BlockID
	open   []BlockID
	// cmds maps the userspace command value (ioctl encoded value or
	// raw sockopt option) to the command's runtime info.
	cmds map[uint64]*kcmd
	// calls maps socket call kinds to runtime info.
	calls map[corpus.SockCallKind]*kcall
	// layouts caches ground-truth layouts by struct name.
	layouts map[string]*corpus.Layout
	// dupBlk and epollBlk are the handler's fd-plumbing blocks:
	// duplicating one of its fds and registering one on an epoll
	// instance each cover one handler-specific block.
	dupBlk, epollBlk BlockID
	// mmap region model (allocated only when the handler models an
	// mmap surface): entry, the fault/validate body, and the munmap
	// teardown block.
	mmapEntry BlockID
	mmapBody  []BlockID
	munmapBlk BlockID
	mappable  bool
	// History bit positions (absolute indices into exec.hist) for the
	// handler-level operations the engine records. Command and socket
	// call bits live on kcmd/kcall. Pre-resolving the bits at kernel
	// build replaces the per-exec map-of-maps the engine used to
	// allocate and hash into.
	openBit, socketBit, pipeBit, epollCreateBit uint32
	mmapBit, munmapBit, readBit, writeBit       uint32
}

// kcmd is the runtime info of one command.
type kcmd struct {
	c      *corpus.Cmd
	entry  BlockID
	body   []BlockID
	gates  []kgate
	bugBlk BlockID
	crash  *Crash         // the planted bug's report, nil if none
	layout *corpus.Layout // payload layout, nil if no struct arg
	// recBit is the command's history bit; prior holds the planted
	// bug's precondition bits (priorImpossible: a precondition names
	// an operation this handler can never record, so the bug cannot
	// fire).
	recBit          uint32
	prior           []uint32
	priorImpossible bool
}

type kgate struct {
	g      corpus.FieldGate
	blocks []BlockID
}

// kcall is the runtime info of one non-sockopt socket call.
type kcall struct {
	sc     *corpus.SockCall
	entry  BlockID
	body   []BlockID
	crash  *Crash         // as on kcmd
	layout *corpus.Layout // sockaddr layout
	// recBit/prior mirror kcmd's history bits for socket-call bugs.
	recBit          uint32
	prior           []uint32
	priorImpossible bool
}

// exop is the engine dispatch opcode a syscall name lowers to. The
// zero value (opGeneric) dispatches nothing beyond the generic entry
// block — the close/poll behavior.
type exop uint8

const (
	opGeneric exop = iota
	opOpen
	opSocket
	opIoctl
	opSockopt
	opBind
	opConnect
	opSendto
	opRecvfrom
	opSendmsg
	opRecvmsg
	opListen
	opAccept
	opDup
	opPipe
	opEpollCreate
	opEpollCtl
	opEpollWait
	opMmap
	opMunmap
	opReadWrite
)

// opOf lowers syscall base names to dispatch opcodes, looked up once
// per compiled call when Kernel.resolve builds the rcall table.
var opOf = map[string]exop{
	"openat": opOpen, "open": opOpen, "syz_open_dev": opOpen,
	"socket":     opSocket,
	"ioctl":      opIoctl,
	"setsockopt": opSockopt, "getsockopt": opSockopt,
	"bind": opBind, "connect": opConnect,
	"sendto": opSendto, "recvfrom": opRecvfrom,
	"sendmsg": opSendmsg, "recvmsg": opRecvmsg,
	"listen": opListen, "accept": opAccept,
	"dup": opDup, "dup2": opDup, "dup3": opDup,
	"pipe": opPipe, "pipe2": opPipe,
	"epoll_create": opEpollCreate, "epoll_create1": opEpollCreate,
	"epoll_ctl":  opEpollCtl,
	"epoll_wait": opEpollWait, "epoll_pwait": opEpollWait,
	"mmap": opMmap, "munmap": opMunmap,
	"read": opReadWrite, "write": opReadWrite,
}

// New builds the kernel image for a corpus. Block numbering is
// deterministic: handlers in corpus order, commands in declaration
// order.
func New(c *corpus.Corpus) *Kernel {
	k := &Kernel{
		byPath:        map[string]*khandler{},
		byDomain:      map[int]*khandler{},
		byName:        map[string]*khandler{},
		genericBlocks: map[string]BlockID{},
	}
	var next uint32
	alloc := func(n int) []BlockID {
		if int(next)+n > maxBlocks {
			panic(fmt.Sprintf("vkernel: corpus needs more than %d basic blocks", maxBlocks))
		}
		out := make([]BlockID, n)
		for i := range out {
			out[i] = next
			next++
		}
		return out
	}
	// History-bit allocation: one bit per (handler, operation) the
	// engine can record, assigned at build so the per-exec history is a
	// flat bitset instead of string-keyed maps. Recording an operation
	// name twice on one handler reuses the bit (the old map-of-bools
	// semantics); bug preconditions resolve to bit lists here, and a
	// precondition naming an operation the handler can never record
	// marks the bug impossible (it could never appear in the old map
	// either).
	var histBits uint32
	regBits := func(kh *khandler, kcmds []*kcmd, kcalls []*kcall) {
		ops := map[string]uint32{}
		bit := func(name string) uint32 {
			if b, ok := ops[name]; ok {
				return b
			}
			b := histBits
			histBits++
			ops[name] = b
			return b
		}
		kh.openBit = bit("open")
		kh.socketBit = bit("socket")
		kh.pipeBit = bit("pipe")
		kh.epollCreateBit = bit("epoll_create")
		kh.mmapBit = bit("mmap")
		kh.munmapBit = bit("munmap")
		kh.readBit = bit("read")
		kh.writeBit = bit("write")
		for _, kc := range kcmds {
			kc.recBit = bit(kc.c.Name)
		}
		for _, kc := range kcalls {
			kc.recBit = bit(kc.sc.Kind.String())
		}
		for _, kc := range kcmds {
			if kc.c.Bug == nil {
				continue
			}
			for _, name := range kc.c.Bug.PriorCmds {
				if b, ok := ops[name]; ok {
					kc.prior = append(kc.prior, b)
				} else {
					kc.priorImpossible = true
				}
			}
		}
		for _, kc := range kcalls {
			if kc.sc.Bug == nil {
				continue
			}
			for _, name := range kc.sc.Bug.PriorCmds {
				if b, ok := ops[name]; ok {
					kc.prior = append(kc.prior, b)
				} else {
					kc.priorImpossible = true
				}
			}
		}
	}
	// Generic syscall-entry blocks.
	for _, name := range []string{
		"openat", "open", "close", "read", "write", "ioctl", "mmap", "poll",
		"socket", "bind", "connect", "accept", "listen", "sendto",
		"recvfrom", "sendmsg", "recvmsg", "setsockopt", "getsockopt",
		"dup", "pipe", "epoll_create", "epoll_ctl", "epoll_wait", "munmap",
	} {
		k.genericBlocks[name] = alloc(1)[0]
	}
	// Builtin pipe and epoll pseudo-handlers: fd plumbing the mutation
	// operators can thread through driver programs. Their handler
	// models are synthetic (no corpus entry); history keys use the
	// reserved names below.
	k.pipe = &khandler{
		h:    &corpus.Handler{Name: "#pipe"},
		lo:   next,
		open: alloc(2),
	}
	k.plumb = map[string]BlockID{}
	for _, name := range []string{"pipe_read", "pipe_write"} {
		k.plumb[name] = alloc(1)[0]
	}
	// Builtin fds are dup-able and epoll-watchable like any other fd;
	// without their own blocks the zero value would alias block 0.
	k.pipe.dupBlk = alloc(1)[0]
	k.pipe.epollBlk = alloc(1)[0]
	k.pipe.hi = next
	regBits(k.pipe, nil, nil)
	k.epoll = &khandler{
		h:    &corpus.Handler{Name: "#epoll"},
		lo:   next,
		open: alloc(2),
	}
	for _, name := range []string{"epoll_add", "epoll_del", "epoll_mod", "epoll_wait", "epoll_ready"} {
		k.plumb[name] = alloc(1)[0]
	}
	k.epoll.dupBlk = alloc(1)[0]
	k.epoll.epollBlk = alloc(1)[0]
	k.epoll.hi = next
	regBits(k.epoll, nil, nil)
	for _, h := range c.Handlers {
		if !h.Loaded {
			continue
		}
		// Capture lo before alloc runs: in a composite literal the
		// alloc() call would be evaluated before the plain `next`
		// operand, leaving the open blocks outside [lo, hi).
		lo := next
		kh := &khandler{
			h:       h,
			lo:      lo,
			open:    alloc(h.OpenBlocks),
			cmds:    map[uint64]*kcmd{},
			calls:   map[corpus.SockCallKind]*kcall{},
			layouts: map[string]*corpus.Layout{},
		}
		layout := func(name string) *corpus.Layout {
			if name == "" {
				return nil
			}
			if l, ok := kh.layouts[name]; ok {
				return l
			}
			l := h.LayoutOf(name)
			kh.layouts[name] = l
			return l
		}
		kcmds := make([]*kcmd, 0, len(h.Cmds))
		for i := range h.Cmds {
			cmd := &h.Cmds[i]
			kc := &kcmd{
				c:      cmd,
				entry:  alloc(1)[0],
				body:   alloc(cmd.Blocks),
				layout: layout(cmd.Arg),
			}
			for _, g := range cmd.Gates {
				kc.gates = append(kc.gates, kgate{g: g, blocks: alloc(g.Blocks)})
			}
			if cmd.Bug != nil {
				kc.bugBlk = alloc(1)[0]
				kc.crash = &Crash{Title: cmd.Bug.Title, Bug: cmd.Bug}
			}
			val := h.CmdValue(cmd, c.Index.Sizeof)
			kh.cmds[val] = kc
			kcmds = append(kcmds, kc)
		}
		kcalls := make([]*kcall, 0, len(h.Socket.Calls))
		for i := range h.Socket.Calls {
			sc := &h.Socket.Calls[i]
			kc := &kcall{
				sc:     sc,
				entry:  alloc(1)[0],
				body:   alloc(sc.Blocks),
				layout: layout(sc.Addr),
			}
			if sc.Bug != nil {
				kc.crash = &Crash{Title: sc.Bug.Title, Bug: sc.Bug}
			}
			kh.calls[sc.Kind] = kc
			kcalls = append(kcalls, kc)
		}
		regBits(kh, kcmds, kcalls)
		// fd plumbing: every handler's fds can be duplicated and
		// epoll-registered; mappable handlers additionally get an mmap
		// fault path and a munmap teardown block.
		kh.dupBlk = alloc(1)[0]
		kh.epollBlk = alloc(1)[0]
		if h.MmapBlocks > 0 {
			kh.mappable = true
			kh.mmapEntry = alloc(1)[0]
			kh.mmapBody = alloc(h.MmapBlocks)
			kh.munmapBlk = alloc(1)[0]
		}
		kh.hi = next
		k.byName[h.Name] = kh
		if h.Kind == corpus.KindDriver && h.DevPath != "" {
			k.byPath[h.DevPath] = kh
		}
		if h.Kind == corpus.KindSocket {
			k.byDomain[h.Socket.DomainVal] = kh
		}
	}
	k.TotalBlocks = next
	k.histWords = int(histBits+63) / 64
	return k
}

// NumBlocks bounds the block-ID space: every BlockID the kernel can
// report is in [0, NumBlocks). Dense coverage structures (CoverSet)
// size themselves from this.
func (k *Kernel) NumBlocks() uint32 { return k.TotalBlocks }

// BlockRange returns the half-open block-id range [lo, hi) assigned
// to the named handler's code ([0, 0) for an unknown handler). Block
// numbering is contiguous per handler and the ranges are disjoint, so
// a campaign's coverage can be explained per handler: the blocks it
// covered inside [lo, hi) against the hi-lo blocks the handler can
// reach.
func (k *Kernel) BlockRange(handler string) (lo, hi BlockID) {
	kh := k.byName[handler]
	if kh == nil {
		return 0, 0
	}
	return kh.lo, kh.hi
}

// String summarizes the kernel image.
func (k *Kernel) String() string {
	return fmt.Sprintf("vkernel{%d handlers, %d blocks}", len(k.byName), k.TotalBlocks)
}
