package vkernel

import (
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/prog"
)

// Crash is a sanitizer report from the virtual kernel. The kernel
// image builds one per planted bug and every run that fires the bug
// returns that record: it is kernel-owned, shared by every VM and
// every run, and read-only.
type Crash struct {
	// Title is the dedup key, e.g. "kmalloc bug in ctl_ioctl".
	Title string
	Bug   *corpus.Bug
}

// Result is the outcome of executing one program.
type Result struct {
	// Cov lists the basic blocks covered, deduplicated and sorted.
	Cov []BlockID
	// Crash is the kernel's shared, read-only report of the planted bug
	// that fired, nil if none did; execution stops at the crashing call.
	Crash *Crash
	// Errno counts calls that failed (bad fd, unknown command, ...).
	Errno int
}

// exec carries per-program mutable state (one "VM instance"). The
// state is owned by a VM and recycled across runs via reset — the
// coverage bitmap, fd table, and history bitset keep their capacity.
type exec struct {
	k   *Kernel
	cov *CoverSet
	// fds maps call index → the handler whose fd that call returned.
	fds []*khandler
	// vmas maps call index → the memory region that call mapped (the
	// mmap region model; munmap consumes entries by result index).
	vmas []vma
	// watches counts live epoll registrations (epoll_wait readiness).
	watches int
	// hist is the per-program operation history, one bit per
	// (handler, operation) pair as assigned at kernel build, for
	// stateful bug preconditions.
	hist  []uint64
	crash *Crash
	errs  int
}

// vma is one mapped region in the mmap region model.
type vma struct {
	kh     *khandler
	length uint64
	mapped bool
}

// reset prepares the state for a program of n calls, reusing prior
// allocations.
func (e *exec) reset(n int) {
	e.cov.Clear()
	if cap(e.fds) < n {
		e.fds = make([]*khandler, n)
	} else {
		e.fds = e.fds[:n]
		for i := range e.fds {
			e.fds[i] = nil
		}
	}
	if cap(e.vmas) < n {
		e.vmas = make([]vma, n)
	} else {
		e.vmas = e.vmas[:n]
		for i := range e.vmas {
			e.vmas[i] = vma{}
		}
	}
	e.watches = 0
	clear(e.hist)
	e.crash = nil
	e.errs = 0
}

func (e *exec) cover(blocks ...BlockID) {
	for _, b := range blocks {
		e.cov.Add(b)
	}
}

// rec marks one history bit (a handler/operation pair).
func (e *exec) rec(bit uint32) {
	e.hist[bit>>6] |= 1 << (bit & 63)
}

// seenBits reports whether every bit in bits is recorded.
func (e *exec) seenBits(bits []uint32) bool {
	for _, b := range bits {
		if e.hist[b>>6]&(1<<(b&63)) == 0 {
			return false
		}
	}
	return true
}

// scalarAt returns argument i's immediate value (0 when absent).
func scalarAt(c *prog.ExecCall, i int) uint64 {
	if i < len(c.Args) {
		return c.Args[i].Scalar
	}
	return 0
}

// resAt returns argument i's resource binding (the producing call
// index), or -1 when the argument is absent, not a resource, or
// unbound.
func resAt(c *prog.ExecCall, i int) int {
	if i < len(c.Args) {
		return int(c.Args[i].Res)
	}
	return -1
}

// blobAt returns argument i's encoded pointee payload (nil when absent
// or not a pointer).
func blobAt(c *prog.ExecCall, i int) []byte {
	if i < len(c.Args) {
		return c.Args[i].Blob
	}
	return nil
}

// fdAt resolves argument i's resource binding to the handler whose fd
// that call returned.
func (e *exec) fdAt(c *prog.ExecCall, i int) *khandler {
	r := resAt(c, i)
	if r < 0 || r >= len(e.fds) {
		return nil
	}
	return e.fds[r]
}

// dispatch routes one compiled call to its handler implementation. kh
// is the pre-resolved target handler for open/socket opcodes (nil = no
// such device/domain) and unused otherwise.
func (e *exec) dispatch(idx int, op exop, kh *khandler, c *prog.ExecCall) {
	switch op {
	case opOpen:
		e.runOpen(idx, kh)
	case opSocket:
		e.runSocket(idx, kh)
	case opIoctl:
		e.runIoctl(idx, c)
	case opSockopt:
		e.runSockopt(c)
	case opBind:
		e.runAddrCall(c, corpus.SockBind)
	case opConnect:
		e.runAddrCall(c, corpus.SockConnect)
	case opSendto:
		e.runSendRecv(c, corpus.SockSendto, 4, 5)
	case opRecvfrom:
		e.runSendRecv(c, corpus.SockRecvfrom, 4, 5)
	case opSendmsg:
		e.runSimpleSock(c, corpus.SockSendmsg)
	case opRecvmsg:
		e.runSimpleSock(c, corpus.SockRecvmsg)
	case opListen:
		e.runSimpleSock(c, corpus.SockListen)
	case opAccept:
		e.runAccept(idx, c)
	case opDup:
		e.runDup(idx, c)
	case opPipe:
		e.runPipe(idx)
	case opEpollCreate:
		e.runEpollCreate(idx)
	case opEpollCtl:
		e.runEpollCtl(c)
	case opEpollWait:
		e.runEpollWait(c)
	case opMmap:
		e.runMmap(idx, c)
	case opMunmap:
		e.runMunmap(c)
	case opReadWrite:
		e.runReadWrite(c)
	default:
		// close/poll: generic entry only.
	}
}

func (e *exec) runOpen(idx int, kh *khandler) {
	if kh == nil {
		e.errs++
		return
	}
	e.cover(kh.open...)
	e.fds[idx] = kh
	e.rec(kh.openBit)
}

func (e *exec) runSocket(idx int, kh *khandler) {
	if kh == nil {
		e.errs++
		return
	}
	e.cover(kh.open...)
	e.fds[idx] = kh
	e.rec(kh.socketBit)
}

func (e *exec) runIoctl(idx int, c *prog.ExecCall) {
	kh := e.fdAt(c, 0)
	if kh == nil {
		e.errs++
		return
	}
	cmdVal := scalarAt(c, 1)
	kc := kh.cmds[cmdVal]
	if kc == nil {
		e.errs++
		return
	}
	e.cover(kc.entry)
	e.cover(kc.body...)
	payload := blobAt(c, 2)
	e.rec(kc.recBit)
	e.evalGatesAndBug(kc, payload)
	if e.crash != nil {
		return
	}
	if kc.c.MakesRes != "" {
		child := e.k.byName[kc.c.MakesRes]
		if child != nil {
			e.cover(child.open...)
			e.fds[idx] = child
			e.rec(child.openBit)
		}
	}
}

// evalGatesAndBug decodes payload fields at the ground-truth offsets,
// covers gated blocks whose conditions hold, and fires the planted
// bug when its precondition and trigger are met.
func (e *exec) evalGatesAndBug(kc *kcmd, payload []byte) {
	for _, g := range kc.gates {
		if kc.layout == nil {
			continue
		}
		v, ok := kc.layout.ReadField(payload, g.g.Field)
		if ok && g.g.Eval(v) {
			e.cover(g.blocks...)
		}
	}
	if kc.crash == nil || kc.priorImpossible || !e.seenBits(kc.prior) {
		return
	}
	if bug := kc.c.Bug; bug.TriggerField != "" {
		if kc.layout == nil {
			return
		}
		v, ok := kc.layout.ReadField(payload, bug.TriggerField)
		if !ok || !bug.Trigger.Eval(v) {
			return
		}
	}
	e.cover(kc.bugBlk)
	e.crash = kc.crash
}

func (e *exec) runSockopt(c *prog.ExecCall) {
	kh := e.fdAt(c, 0)
	if kh == nil || kh.h.Kind != corpus.KindSocket {
		e.errs++
		return
	}
	level := int(scalarAt(c, 1))
	if level != kh.h.Socket.LevelVal {
		e.errs++
		return
	}
	opt := scalarAt(c, 2)
	kc := kh.cmds[opt]
	if kc == nil {
		e.errs++
		return
	}
	e.cover(kc.entry)
	payload := blobAt(c, 3)
	optlen := scalarAt(c, 4)
	if kc.layout != nil && int(optlen) < kc.layout.Size {
		// The rendered sockopt worker rejects short optlen before
		// doing any work.
		e.errs++
		return
	}
	e.cover(kc.body...)
	e.rec(kc.recBit)
	e.evalGatesAndBug(kc, payload)
}

func (e *exec) runAddrCall(c *prog.ExecCall, kind corpus.SockCallKind) {
	kh := e.fdAt(c, 0)
	if kh == nil {
		e.errs++
		return
	}
	kc := kh.calls[kind]
	if kc == nil {
		e.errs++
		return
	}
	e.cover(kc.entry)
	addr := blobAt(c, 1)
	addrlen := scalarAt(c, 2)
	if !e.addrValid(kh, kc, addr, addrlen) {
		e.errs++
		return
	}
	e.cover(kc.body...)
	e.rec(kc.recBit)
	e.fireSockBug(kc)
}

func (e *exec) runSendRecv(c *prog.ExecCall, kind corpus.SockCallKind, addrIdx, lenIdx int) {
	kh := e.fdAt(c, 0)
	if kh == nil {
		e.errs++
		return
	}
	kc := kh.calls[kind]
	if kc == nil {
		e.errs++
		return
	}
	e.cover(kc.entry)
	addr := blobAt(c, addrIdx)
	addrlen := scalarAt(c, lenIdx)
	if !e.addrValid(kh, kc, addr, addrlen) {
		e.errs++
		return
	}
	e.cover(kc.body...)
	e.rec(kc.recBit)
	e.fireSockBug(kc)
}

func (e *exec) runSimpleSock(c *prog.ExecCall, kind corpus.SockCallKind) {
	kh := e.fdAt(c, 0)
	if kh == nil {
		e.errs++
		return
	}
	kc := kh.calls[kind]
	if kc == nil {
		e.errs++
		return
	}
	e.cover(kc.entry)
	e.cover(kc.body...)
	e.rec(kc.recBit)
	e.fireSockBug(kc)
}

func (e *exec) runAccept(idx int, c *prog.ExecCall) {
	kh := e.fdAt(c, 0)
	if kh == nil {
		e.errs++
		return
	}
	kc := kh.calls[corpus.SockAccept]
	if kc == nil {
		e.errs++
		return
	}
	e.cover(kc.entry)
	e.cover(kc.body...)
	e.fds[idx] = kh
	e.rec(kc.recBit)
}

// Userspace constant values mirrored from the corpus base header
// (include/uapi/base.h).
const (
	protRead     = 1
	protWrite    = 2
	epollCtlAdd  = 1
	epollCtlDel  = 2
	epollCtlMod  = 3
	maxMmapBytes = 1 << 30
)

// runDup duplicates an fd: the new call index aliases the same
// handler, so later calls can drive the device through either fd.
func (e *exec) runDup(idx int, c *prog.ExecCall) {
	kh := e.fdAt(c, 0)
	if kh == nil {
		e.errs++
		return
	}
	e.cover(kh.dupBlk)
	e.fds[idx] = kh
}

// runPipe creates a pipe fd backed by the builtin pipe
// pseudo-handler.
func (e *exec) runPipe(idx int) {
	e.cover(e.k.pipe.open...)
	e.fds[idx] = e.k.pipe
	e.rec(e.k.pipe.pipeBit)
}

// runEpollCreate creates an epoll instance fd.
func (e *exec) runEpollCreate(idx int) {
	e.cover(e.k.epoll.open...)
	e.fds[idx] = e.k.epoll
	e.rec(e.k.epoll.epollCreateBit)
}

// runEpollCtl registers, modifies, or removes a watch. Registering a
// handler-backed fd covers the handler's poll-registration block —
// per-handler territory only reachable through the epoll surface.
func (e *exec) runEpollCtl(c *prog.ExecCall) {
	ep := e.fdAt(c, 0)
	if ep != e.k.epoll || ep == nil {
		e.errs++
		return
	}
	op := scalarAt(c, 1)
	target := e.fdAt(c, 2)
	if target == nil {
		e.errs++
		return
	}
	switch op {
	case epollCtlAdd:
		e.cover(e.k.plumb["epoll_add"])
		e.cover(target.epollBlk)
		e.watches++
	case epollCtlDel:
		if e.watches == 0 {
			e.errs++
			return
		}
		e.cover(e.k.plumb["epoll_del"])
		e.watches--
	case epollCtlMod:
		if e.watches == 0 {
			e.errs++
			return
		}
		e.cover(e.k.plumb["epoll_mod"])
	default:
		e.errs++
	}
}

// runEpollWait polls the instance; the ready path needs at least one
// live watch.
func (e *exec) runEpollWait(c *prog.ExecCall) {
	ep := e.fdAt(c, 0)
	if ep != e.k.epoll || ep == nil {
		e.errs++
		return
	}
	e.cover(e.k.plumb["epoll_wait"])
	if e.watches > 0 {
		e.cover(e.k.plumb["epoll_ready"])
	}
}

// runMmap maps a region of a mappable handler's device:
// mmap(addr, len, prot, flags, fd, off). The validate path rejects
// empty and oversized lengths; the fault path covers blocks gated on
// protection bits and page alignment, and a successful mapping enters
// the region table for munmap.
func (e *exec) runMmap(idx int, c *prog.ExecCall) {
	kh := e.fdAt(c, 4)
	if kh == nil || !kh.mappable {
		// Unmappable device (or bad fd): generic entry only.
		e.errs++
		return
	}
	e.cover(kh.mmapEntry)
	length := scalarAt(c, 1)
	if length == 0 || length > maxMmapBytes {
		e.errs++
		return
	}
	prot := scalarAt(c, 2)
	body := kh.mmapBody
	e.cover(body[0])
	gates := [4]bool{
		prot&protRead != 0,
		prot&protWrite != 0,
		length%4096 == 0,
		length >= 1<<20,
	}
	for i, ok := range gates {
		if ok && i+1 < len(body) {
			e.cover(body[i+1])
		}
	}
	// Body blocks beyond the gated prefix are the unconditional tail
	// of the fault path: every successful mapping reaches them (no
	// block is allocated that no input can cover).
	for i := len(gates) + 1; i < len(body); i++ {
		e.cover(body[i])
	}
	e.vmas[idx] = vma{kh: kh, length: length, mapped: true}
	e.rec(kh.mmapBit)
}

// runMunmap tears down a mapping: munmap(map, len). The map argument
// is the resource produced by an earlier mmap; unmapping twice is an
// error.
func (e *exec) runMunmap(c *prog.ExecCall) {
	r := resAt(c, 0)
	if r < 0 || r >= len(e.vmas) {
		e.errs++
		return
	}
	region := &e.vmas[r]
	if !region.mapped {
		e.errs++
		return
	}
	region.mapped = false
	e.cover(region.kh.munmapBlk)
	e.rec(region.kh.munmapBit)
}

// runReadWrite models pipe I/O; on any other fd the generic entry
// block is all there is (matching the historical behavior).
func (e *exec) runReadWrite(c *prog.ExecCall) {
	if kh := e.fdAt(c, 0); kh == e.k.pipe && kh != nil {
		if c.Sc.CallName == "read" {
			e.cover(e.k.plumb["pipe_read"])
			e.rec(kh.readBit)
		} else {
			e.cover(e.k.plumb["pipe_write"])
			e.rec(kh.writeBit)
		}
	}
}

// addrValid models the kernel's sockaddr validation: length at least
// the family's address size and the family field (offset 0, u16)
// matching the domain.
func (e *exec) addrValid(kh *khandler, kc *kcall, addr []byte, addrlen uint64) bool {
	if kc.layout == nil {
		return true
	}
	if int(addrlen) < kc.layout.Size || len(addr) < 2 {
		return false
	}
	fam := uint64(addr[0]) | uint64(addr[1])<<8
	return fam == uint64(kh.h.Socket.DomainVal) || fam == 0
}

func (e *exec) fireSockBug(kc *kcall) {
	if kc.crash != nil && !kc.priorImpossible && e.seenBits(kc.prior) {
		e.crash = kc.crash
	}
}
