// Package corpus defines the synthetic Linux kernel codebase the
// reproduction analyzes and fuzzes. A single ground-truth model
// (Handler/Cmd/StructModel) drives three consumers:
//
//  1. the C renderer (render.go), which emits realistic kernel source
//     text exhibiting the implementation patterns the paper discusses
//     (miscdevice registration, .name vs .nodename, switch dispatch,
//     delegated sub-handlers, _IOC_NR identifier modification, nested
//     structs with length semantics, comments carrying intent);
//  2. the oracle (oracle.go), which derives the ground-truth syzlang
//     specification and the "existing Syzkaller" human-written suite;
//  3. the virtual kernel (internal/vkernel), which executes syscalls
//     against the same model with basic-block coverage and planted
//     bugs.
//
// Because all three views derive from one model, a specification
// generator is correct exactly when fuzzing with its output reaches
// the deep blocks — the property the paper's evaluation measures.
package corpus

import "fmt"

// Kind distinguishes driver and socket handlers.
type Kind int

// Handler kinds.
const (
	KindDriver Kind = iota
	KindSocket
)

// String names the kind.
func (k Kind) String() string {
	if k == KindSocket {
		return "socket"
	}
	return "driver"
}

// Quirk is a bitset of implementation patterns a handler exhibits.
// Quirks determine which analyzers can recover which parts of the
// spec: the SyzDescribe baseline fails on exactly the quirks the
// paper documents (§1, §5.1), while the LLM capability profiles
// handle broader subsets.
type Quirk uint32

// Handler quirks.
const (
	// QuirkNodename puts the device path in miscdevice.nodename
	// rather than deriving it from .name — the device-mapper pattern
	// SyzDescribe gets wrong.
	QuirkNodename Quirk = 1 << iota
	// QuirkIOCNR makes the dispatch switch on _IOC_NR(command)
	// rather than the raw command — so raw case labels are NOT valid
	// command values.
	QuirkIOCNR
	// QuirkDispatch delegates the ioctl body through one or more
	// intermediate functions before the switch (dm_ctl_ioctl →
	// ctl_ioctl). DispatchDepth controls how many hops.
	QuirkDispatch
	// QuirkLookupTable dispatches via a table-lookup helper function
	// (lookup_ioctl) instead of a switch.
	QuirkLookupTable
	// QuirkCommentHint encodes a critical constraint only in a
	// comment (e.g. valid range of a field).
	QuirkCommentHint
	// QuirkCharDev registers via register_chrdev/cdev instead of
	// miscdevice; the device path comes from the registration name.
	QuirkCharDev
	// QuirkLenRelation gives the arg struct a count field whose value
	// must equal the element count of a sibling array.
	QuirkLenRelation
	// QuirkHardware marks handlers requiring specific hardware; they
	// are filtered out of spec generation (§4 Implementation).
	QuirkHardware
	// QuirkDebug marks debug-only devices (… _test) that are
	// likewise filtered.
	QuirkDebug
	// QuirkIndirectCall dispatches sub-commands through a function
	// pointer array — the pattern §5.1.3 reports even LLMs missing
	// for 3 drivers.
	QuirkIndirectCall
)

// Has reports whether q contains all bits of mask.
func (q Quirk) Has(mask Quirk) bool { return q&mask == mask }

// ArgDir is the data direction of an ioctl/sockopt argument.
type ArgDir int

// Argument directions, mirroring _IO/_IOW/_IOR/_IOWR.
const (
	DirNone  ArgDir = iota // _IO: no argument payload
	DirIn                  // _IOW: userspace → kernel
	DirOut                 // _IOR: kernel → userspace
	DirInOut               // _IOWR: both
)

// String renders the direction as the syzlang ptr direction.
func (d ArgDir) String() string {
	switch d {
	case DirIn:
		return "in"
	case DirOut:
		return "out"
	case DirInOut:
		return "inout"
	}
	return "none"
}

// GateOp is a comparison that guards deeper basic blocks (and bugs).
type GateOp int

// Gate operators.
const (
	GateEq GateOp = iota
	GateNe
	GateLt
	GateGt
	GateInRange
	GateNonZero
)

// FieldGate describes a condition on an argument-struct field that
// unlocks additional basic blocks when satisfied. Gates are what make
// *typed* argument generation matter: a fuzzer with the wrong struct
// layout essentially never satisfies them.
type FieldGate struct {
	Field  string
	Op     GateOp
	Value  uint64
	Max    uint64 // for GateInRange
	Blocks int    // basic blocks unlocked
}

// Eval reports whether v satisfies the gate.
func (g FieldGate) Eval(v uint64) bool {
	switch g.Op {
	case GateEq:
		return v == g.Value
	case GateNe:
		return v != g.Value
	case GateLt:
		return v < g.Value
	case GateGt:
		return v > g.Value
	case GateInRange:
		return v >= g.Value && v <= g.Max
	case GateNonZero:
		return v != 0
	}
	return false
}

// BugClass categorizes planted bugs by the sanitizer that reports
// them, mirroring the crash-title prefixes in Table 4.
type BugClass int

// Bug classes.
const (
	BugKASANUAF BugClass = iota
	BugAllocSize
	BugWarning
	BugTaskHung
	BugGPF
	BugKernelBUG
	BugUBSANArray
	BugMemLeak
	BugDeadlock
	BugODebug
	BugListCorrupt
	BugDivide
)

// Bug is a planted vulnerability reachable only under a specific
// condition on a specific command of a specific handler.
type Bug struct {
	// Title matches the crash title format of Table 4, e.g.
	// "kmalloc bug in ctl_ioctl".
	Title string
	Class BugClass
	// Cmd is the command (macro name) whose handler contains the bug.
	Cmd string
	// TriggerField/TriggerOp/TriggerValue specify the field condition
	// that fires the bug. Empty TriggerField means any invocation of
	// Cmd fires it (after PriorCmds are satisfied).
	TriggerField string
	Trigger      FieldGate
	// PriorCmds must have been issued on the same fd earlier in the
	// program for the bug to fire (stateful bugs like the CEC UAF).
	PriorCmds []string
	// CVE and status flags mirror Table 4's columns.
	CVE       string
	Confirmed bool
	Fixed     bool
	// Known marks pre-existing, already-reported bugs reachable with
	// the existing descriptions (the background crash population that
	// gives Table 3 its non-zero baseline crash counts). Known bugs
	// are excluded from Table 4.
	Known bool
}

// FieldModel describes one field of an argument struct.
type FieldModel struct {
	Name  string
	CType string // C scalar type ("__u32"), or "struct <name>"
	// Array: 0 scalar, >0 fixed-size array, -1 flexible trailing array.
	Array int
	// LenOf names a sibling field whose element count this field
	// carries (the count/devices relationship of Figure 5).
	LenOf string
	// Out marks kernel-written fields ("(out)" in syzlang).
	Out bool
	// Min/Max give the valid range when Ranged is set.
	Ranged   bool
	Min, Max uint64
	// Comment is rendered beside the field; with QuirkCommentHint the
	// range above appears only here, not in any code check readable
	// by one-hop analysis.
	Comment string
}

// StructModel describes a C struct used as an ioctl/sockopt payload.
type StructModel struct {
	Name   string
	Fields []FieldModel
	// Comment is the doc comment rendered above the definition.
	Comment string
}

// Cmd is one operation behind a generic syscall: an ioctl command for
// drivers, or a setsockopt/getsockopt option for sockets.
type Cmd struct {
	// Name is the macro name, e.g. "DM_LIST_DEVICES".
	Name string
	// NR is the command number (ioctl nr field / raw option value).
	NR  int
	Dir ArgDir
	// Arg names the payload struct (in Handler.Structs); empty with
	// ArgInt false means no payload.
	Arg string
	// ArgInt marks a plain integer payload instead of a struct.
	ArgInt bool
	// Plain uses the raw NR as the full command value (no _IOC
	// encoding) — common for legacy drivers and all sockopts.
	Plain bool
	// Blocks is the number of basic blocks in the command's
	// sub-handler body (reached once the command value is right).
	Blocks int
	// Gates guard deeper blocks on arg field values.
	Gates []FieldGate
	// Bug is the planted bug in this sub-handler, if any.
	Bug *Bug
	// MakesRes names a resource kind this command creates (secondary
	// fds like kvm's VM fd); empty otherwise.
	MakesRes string
	// NeedsRes names the resource kind the fd argument must be; empty
	// means the handler's primary fd.
	NeedsRes string
	// Indirect dispatches this command through a dynamic registry
	// (register_op at module init) rather than the visible switch —
	// the multiple-indirection pattern §5.1.3 reports defeating even
	// LLM analysis. Static analyzers and the simulated LLM both miss
	// indirect commands; only the expert-written Syzkaller suite can
	// describe them.
	Indirect bool
	// Comment is rendered above the sub-handler case.
	Comment string
}

// SockCallKind enumerates the socket syscalls beyond get/setsockopt
// that a socket handler can implement.
type SockCallKind int

// Socket call kinds.
const (
	SockBind SockCallKind = iota
	SockConnect
	SockSendto
	SockRecvfrom
	SockAccept
	SockListen
	SockSendmsg
	SockRecvmsg
)

// String returns the base syscall name.
func (k SockCallKind) String() string {
	switch k {
	case SockBind:
		return "bind"
	case SockConnect:
		return "connect"
	case SockSendto:
		return "sendto"
	case SockRecvfrom:
		return "recvfrom"
	case SockAccept:
		return "accept"
	case SockListen:
		return "listen"
	case SockSendmsg:
		return "sendmsg"
	case SockRecvmsg:
		return "recvmsg"
	}
	return "?"
}

// SockCall describes one non-sockopt socket syscall the handler
// implements.
type SockCall struct {
	Kind SockCallKind
	// Addr names the sockaddr struct for bind/connect/sendto; Buf
	// true means the call carries a plain byte buffer payload.
	Addr string
	Buf  bool
	// Blocks in the call's kernel handler.
	Blocks int
	Gates  []FieldGate
	Bug    *Bug
}

// SocketInfo carries socket-specific registration data.
type SocketInfo struct {
	// Domain is the address family macro, e.g. "AF_RDS"; DomainVal
	// its value.
	Domain    string
	DomainVal int
	// Type is the socket type macro, e.g. "SOCK_SEQPACKET".
	Type    string
	TypeVal int
	// Protocol value passed to socket(); usually 0.
	Protocol int
	// Level is the sockopt level macro and value (e.g. SOL_RDS, 276).
	Level    string
	LevelVal int
	// Calls lists the implemented non-sockopt syscalls.
	Calls []SockCall
}

// Handler is the ground-truth model of one driver or socket operation
// handler — the unit the paper counts in Table 1.
type Handler struct {
	// Name is a short identifier, e.g. "dm", "cec", "rds".
	Name string
	Kind Kind
	// DevPath is the device file path for drivers
	// (e.g. "/dev/mapper/control").
	DevPath string
	// MiscName is the miscdevice .name field value; when
	// QuirkNodename is absent, DevPath must equal "/dev/"+MiscName.
	MiscName string
	Quirks   Quirk
	// IoctlChar is the _IOC type byte for encoded commands.
	IoctlChar byte
	// DispatchDepth is the number of delegation hops before the
	// switch (meaningful with QuirkDispatch; ≥1).
	DispatchDepth int
	Cmds          []Cmd
	Structs       []StructModel
	Socket        SocketInfo
	// Loaded reports whether the handler is enabled under the syzbot
	// boot configuration (Table 1 splits scanned vs loaded).
	Loaded bool
	// OpenBlocks is the coverage earned just by opening the device
	// (or creating the socket).
	OpenBlocks int
	// MmapBlocks is the number of basic blocks in the handler's mmap
	// fault/validate path; 0 means the handler does not implement
	// mmap. Mappable handlers also get a munmap teardown block, and
	// their fds reach the vkernel's mmap region model.
	MmapBlocks int
	// SyzkallerCmds lists the command names already described by the
	// existing human-written Syzkaller suite; nil means the handler
	// has no existing descriptions at all (an empty non-nil slice
	// means only the open/socket call is described).
	SyzkallerCmds []string
	// SyzkallerCalls lists the non-sockopt socket calls the human
	// suite describes (the RDS situation: recvmsg covered, sendto
	// missing).
	SyzkallerCalls []SockCallKind
	// SyzkallerComplete marks handlers whose existing descriptions
	// cover every command (not "incomplete" in Table 1).
	SyzkallerComplete bool
	// Parent/CreatedBy link secondary operation handlers (kvm's
	// kvm_vm_fops / kvm_vcpu_fops) to the parent handler command that
	// creates their file descriptor via anon_inode_getfd. A handler
	// with Parent set has no DevPath; its fd is only obtainable
	// through the parent's CreatedBy command.
	Parent    string
	CreatedBy string
}

// StructByName returns the named struct model, or nil.
func (h *Handler) StructByName(name string) *StructModel {
	for i := range h.Structs {
		if h.Structs[i].Name == name {
			return &h.Structs[i]
		}
	}
	return nil
}

// CmdByName returns the named command, or nil.
func (h *Handler) CmdByName(name string) *Cmd {
	for i := range h.Cmds {
		if h.Cmds[i].Name == name {
			return &h.Cmds[i]
		}
	}
	return nil
}

// Ident is the handler name sanitized for use in C and syzlang
// identifiers ('-', '#' and '/' become '_').
func (h *Handler) Ident() string {
	out := make([]byte, len(h.Name))
	for i := 0; i < len(h.Name); i++ {
		c := h.Name[i]
		if c == '-' || c == '#' || c == '/' {
			c = '_'
		}
		out[i] = c
	}
	return string(out)
}

// FDResource is the syzlang resource name for the handler's primary
// file descriptor.
func (h *Handler) FDResource() string { return "fd_" + h.Ident() }

// SourcePath is the synthetic source file path for the handler.
func (h *Handler) SourcePath() string {
	if h.Kind == KindSocket {
		return fmt.Sprintf("net/%s/af_%s.c", h.Name, h.Name)
	}
	return fmt.Sprintf("drivers/%s/%s_main.c", h.Name, h.Name)
}

// CmdValue computes the userspace-visible command value for cmd:
// either the raw NR (Plain) or the _IOC encoding using the payload
// size. sizeof reports the byte size of a struct by name.
func (h *Handler) CmdValue(cmd *Cmd, sizeof func(string) int) uint64 {
	if cmd.Plain {
		return uint64(cmd.NR)
	}
	var dir, size uint64
	switch cmd.Dir {
	case DirIn:
		dir = 1
	case DirOut:
		dir = 2
	case DirInOut:
		dir = 3
	}
	if cmd.Arg != "" && sizeof != nil {
		size = uint64(sizeof(cmd.Arg))
	} else if cmd.ArgInt {
		size = 4
	}
	return dir<<30 | size<<16 | uint64(h.IoctlChar)<<8 | uint64(cmd.NR)
}

// Bugs returns every planted bug in the handler (commands and socket
// calls).
func (h *Handler) Bugs() []*Bug {
	var bugs []*Bug
	for i := range h.Cmds {
		if h.Cmds[i].Bug != nil {
			bugs = append(bugs, h.Cmds[i].Bug)
		}
	}
	for i := range h.Socket.Calls {
		if h.Socket.Calls[i].Bug != nil {
			bugs = append(bugs, h.Socket.Calls[i].Bug)
		}
	}
	return bugs
}
