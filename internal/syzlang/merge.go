package syzlang

import "strings"

// callKey identifies a syscall by its (CallName, Variant) pair. Two
// syscalls share a key exactly when they share a Name(): a CallName is
// an identifier, and identifiers cannot contain the '$' that Name()
// puts between the two (see isIdentPart).
type callKey struct{ call, variant string }

func keyOf(s *SyscallDef) callKey { return callKey{s.CallName, s.Variant} }

// keep appends to dst the declarations of src that ok accepts, in
// order.
func keep[D any](dst, src []D, ok func(D) bool) []D {
	for _, d := range src {
		if ok(d) {
			dst = append(dst, d)
		}
	}
	return dst
}

// first reports whether k is new to seen, and marks it seen.
func first[K comparable](seen map[K]bool, k K) bool {
	if seen[k] {
		return false
	}
	seen[k] = true
	return true
}

// MergeDedup combines description files into one, keeping the first
// occurrence of every named declaration. Suites assembled from
// multiple generators overlap on handlers the human suite partially
// covers; Syzkaller resolves such collisions by name identity, which
// this mirrors. Structs and unions share one namespace, as in
// Validate.
func MergeDedup(files ...*File) *File {
	// Sized for the syscalls, which dominate a suite.
	n := 0
	for _, f := range files {
		if f != nil {
			n += len(f.Syscalls)
		}
	}
	out := &File{}
	if n > 0 {
		out.Syscalls = make([]*SyscallDef, 0, n)
	}
	seenRes := map[string]bool{}
	seenCall := make(map[callKey]bool, n)
	seenType := map[string]bool{}
	seenFlags := map[string]bool{}
	for _, f := range files {
		if f == nil {
			continue
		}
		out.Resources = keep(out.Resources, f.Resources, func(r *ResourceDef) bool { return first(seenRes, r.Name) })
		out.Syscalls = keep(out.Syscalls, f.Syscalls, func(s *SyscallDef) bool { return first(seenCall, keyOf(s)) })
		out.Structs = keep(out.Structs, f.Structs, func(s *StructDef) bool { return first(seenType, s.Name) })
		out.Unions = keep(out.Unions, f.Unions, func(u *UnionDef) bool { return first(seenType, u.Name) })
		out.Flags = keep(out.Flags, f.Flags, func(fl *FlagsDef) bool { return first(seenFlags, fl.Name) })
	}
	return out
}

// Prune drops every declaration errs names (errs being f's validation
// errors) and validates again, until the file is clean or a round
// drops nothing. A specification that still fails after repair keeps
// the part that validates. Prune returns the pruned file and the
// errors left; f itself is not modified.
func Prune(f *File, env *Env, errs []*ValidationError) (*File, []*ValidationError) {
	for len(errs) > 0 {
		next := drop(f, errs)
		if next.count() == f.count() {
			break
		}
		f, errs = next, Validate(next, env)
	}
	return f, errs
}

// drop returns f without the declarations errs are attributed to.
func drop(f *File, errs []*ValidationError) *File {
	bad := map[string]bool{}
	badCall := map[callKey]bool{}
	for _, e := range errs {
		bad[e.Decl] = true
		call, variant, _ := strings.Cut(e.Decl, "$")
		badCall[callKey{call, variant}] = true
	}
	return &File{
		Resources: keep(nil, f.Resources, func(r *ResourceDef) bool { return !bad[r.Name] }),
		Syscalls:  keep(nil, f.Syscalls, func(s *SyscallDef) bool { return !badCall[keyOf(s)] }),
		Structs:   keep(nil, f.Structs, func(s *StructDef) bool { return !bad[s.Name] }),
		Unions:    keep(nil, f.Unions, func(u *UnionDef) bool { return !bad[u.Name] }),
		Flags:     keep(nil, f.Flags, func(fl *FlagsDef) bool { return !bad[fl.Name] }),
	}
}

// count is the number of declarations in f.
func (f *File) count() int {
	return len(f.Resources) + len(f.Syscalls) + len(f.Structs) + len(f.Unions) + len(f.Flags)
}
