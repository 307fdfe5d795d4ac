package syzlang

import (
	"fmt"
	"sort"
)

// ValidationError is a structured semantic error attributed to one
// top-level description, which is what lets the repair loop in the
// core package match each error message to the description it must
// fix (§3.2 of the paper).
type ValidationError struct {
	// Decl identifies the offending top-level declaration: a syscall
	// name (with variant), struct, union, flags, or resource name.
	Decl string
	// Kind is a stable error category (see ErrKind constants).
	Kind ErrKind
	// Ref is the identifier the error is about (type name, macro
	// name, field name, ...), when applicable.
	Ref string
	Pos Pos
	Msg string
}

// ErrKind enumerates the validator's error classes. They mirror the
// classes the paper lists for syz-extract/syz-generate: undefined
// types, wrong macro names, unmatched dependencies, and more.
type ErrKind string

// Validation error kinds.
const (
	ErrUndefinedType    ErrKind = "undefined-type"
	ErrUnknownConst     ErrKind = "unknown-const"
	ErrUnknownResource  ErrKind = "unknown-resource"
	ErrUnknownSyscall   ErrKind = "unknown-syscall"
	ErrBadLenTarget     ErrKind = "bad-len-target"
	ErrBadTypeArgs      ErrKind = "bad-type-args"
	ErrDuplicateDecl    ErrKind = "duplicate-decl"
	ErrEmptyDecl        ErrKind = "empty-decl"
	ErrBadDirection     ErrKind = "bad-direction"
	ErrRecursiveType    ErrKind = "recursive-type"
	ErrUnusedResource   ErrKind = "unused-resource"
	ErrBadResourceBase  ErrKind = "bad-resource-base"
	ErrBadRange         ErrKind = "bad-range"
	ErrTooManyArgs      ErrKind = "too-many-args"
	ErrBadStringLiteral ErrKind = "bad-string"
)

// Error implements the error interface.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("%s: %s: %s (%s)", e.Pos, e.Decl, e.Msg, e.Kind)
}

// Env supplies the external knowledge the validator needs: kernel
// macro constants (the output of syz-extract in real Syzkaller) and
// the set of base syscalls the target OS provides.
type Env struct {
	// Consts maps macro names (e.g. "DM_DEV_CREATE") to values.
	Consts map[string]uint64
	// Syscalls is the set of known base syscall names.
	Syscalls map[string]bool
}

// DefaultSyscalls returns the base syscall set used throughout the
// reproduction: the generic syscalls the paper targets for drivers
// and sockets (§4).
func DefaultSyscalls() map[string]bool {
	calls := []string{
		"openat", "open", "close", "read", "write", "mmap", "poll",
		"ioctl", "socket", "bind", "connect", "accept", "listen",
		"sendto", "recvfrom", "sendmsg", "recvmsg",
		"setsockopt", "getsockopt", "syz_open_dev",
		// fd plumbing and memory-mapping surface (vkernel models
		// these; see internal/corpus plumbing specs).
		"dup", "pipe", "epoll_create", "epoll_ctl", "epoll_wait",
		"munmap",
	}
	m := make(map[string]bool, len(calls))
	for _, c := range calls {
		m[c] = true
	}
	return m
}

// NewEnv builds a validation environment from a constant table,
// using the default base syscall set.
func NewEnv(consts map[string]uint64) *Env {
	return &Env{Consts: consts, Syscalls: DefaultSyscalls()}
}

// builtinTypes are the scalar/parameterized type constructors this
// syzlang subset supports.
var builtinScalar = map[string]bool{
	"int8": true, "int16": true, "int32": true, "int64": true,
	"intptr": true, "bool8": true, "fd": true, "pid": true,
	"filename": true, "void": true,
}

type validator struct {
	env     *Env
	file    *File
	structs map[string]*StructDef
	unions  map[string]*UnionDef
	flags   map[string]*FlagsDef
	res     map[string]*ResourceDef
	errs    []*ValidationError
	// visiting tracks struct/union expansion for recursion detection.
	visiting map[string]bool
	resolved map[string]bool
}

// Validate performs semantic validation of a description file against
// the environment and returns all errors found. A nil/empty result
// means the file would compile under syz-generate.
func Validate(f *File, env *Env) []*ValidationError {
	v := &validator{
		env:      env,
		file:     f,
		structs:  map[string]*StructDef{},
		unions:   map[string]*UnionDef{},
		flags:    map[string]*FlagsDef{},
		res:      map[string]*ResourceDef{},
		visiting: map[string]bool{},
		resolved: map[string]bool{},
	}
	v.collect()
	v.checkResources()
	v.checkSyscalls()
	v.checkTypes()
	sort.SliceStable(v.errs, func(i, j int) bool {
		a, b := v.errs[i], v.errs[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Col < b.Pos.Col
	})
	return v.errs
}

func (v *validator) errorf(decl string, kind ErrKind, ref string, pos Pos, format string, args ...any) {
	v.errs = append(v.errs, &ValidationError{
		Decl: decl, Kind: kind, Ref: ref, Pos: pos,
		Msg: fmt.Sprintf(format, args...),
	})
}

func (v *validator) collect() {
	for _, r := range v.file.Resources {
		if _, dup := v.res[r.Name]; dup {
			v.errorf(r.Name, ErrDuplicateDecl, r.Name, r.Pos, "resource %q redefined", r.Name)
			continue
		}
		v.res[r.Name] = r
	}
	seenCalls := map[string]bool{}
	for _, s := range v.file.Syscalls {
		name := s.Name()
		if seenCalls[name] {
			v.errorf(name, ErrDuplicateDecl, name, s.Pos, "syscall %q redefined", name)
		}
		seenCalls[name] = true
	}
	for _, s := range v.file.Structs {
		if v.declaredType(s.Name) {
			v.errorf(s.Name, ErrDuplicateDecl, s.Name, s.Pos, "type %q redefined", s.Name)
			continue
		}
		v.structs[s.Name] = s
	}
	for _, u := range v.file.Unions {
		if v.declaredType(u.Name) {
			v.errorf(u.Name, ErrDuplicateDecl, u.Name, u.Pos, "type %q redefined", u.Name)
			continue
		}
		v.unions[u.Name] = u
	}
	for _, fl := range v.file.Flags {
		if _, dup := v.flags[fl.Name]; dup {
			v.errorf(fl.Name, ErrDuplicateDecl, fl.Name, fl.Pos, "flags %q redefined", fl.Name)
			continue
		}
		v.flags[fl.Name] = fl
	}
}

func (v *validator) declaredType(name string) bool {
	_, s := v.structs[name]
	_, u := v.unions[name]
	return s || u
}

func (v *validator) checkResources() {
	used := map[string]bool{}
	for _, s := range v.file.Syscalls {
		if s.Ret != "" {
			used[s.Ret] = true
		}
		for _, a := range s.Args {
			v.markResourceUse(a.Type, used)
		}
	}
	for _, st := range v.file.Structs {
		for _, f := range st.Fields {
			v.markResourceUse(f.Type, used)
		}
	}
	for _, r := range v.file.Resources {
		base := r.Base
		if !builtinScalar[base] {
			if _, ok := v.res[base]; !ok {
				v.errorf(r.Name, ErrBadResourceBase, base, r.Pos,
					"resource %q has unknown base type %q", r.Name, base)
			}
		}
		if !used[r.Name] {
			v.errorf(r.Name, ErrUnusedResource, r.Name, r.Pos,
				"resource %q is never used by any syscall", r.Name)
		}
	}
}

func (v *validator) markResourceUse(t *TypeExpr, used map[string]bool) {
	if t == nil {
		return
	}
	if _, ok := v.res[t.Ident]; ok {
		used[t.Ident] = true
	}
	for _, a := range t.Args {
		if a.Type != nil {
			v.markResourceUse(a.Type, used)
		}
	}
}

const maxSyscallArgs = 9

func (v *validator) checkSyscalls() {
	for _, s := range v.file.Syscalls {
		name := s.Name()
		if !v.env.Syscalls[s.CallName] {
			v.errorf(name, ErrUnknownSyscall, s.CallName, s.Pos,
				"unknown base syscall %q", s.CallName)
		}
		if len(s.Args) > maxSyscallArgs {
			v.errorf(name, ErrTooManyArgs, "", s.Pos,
				"syscall has %d arguments, max is %d", len(s.Args), maxSyscallArgs)
		}
		if s.Ret != "" {
			if _, ok := v.res[s.Ret]; !ok {
				v.errorf(name, ErrUnknownResource, s.Ret, s.Pos,
					"return type %q is not a declared resource", s.Ret)
			}
		}
		siblings := fieldNames(s.Args)
		for _, a := range s.Args {
			v.checkType(name, a.Type, siblings, false)
		}
	}
}

func fieldNames(fields []*Field) map[string]bool {
	m := make(map[string]bool, len(fields))
	for _, f := range fields {
		m[f.Name] = true
	}
	return m
}

func (v *validator) checkTypes() {
	for _, st := range v.file.Structs {
		if len(st.Fields) == 0 {
			v.errorf(st.Name, ErrEmptyDecl, st.Name, st.Pos, "struct %q has no fields", st.Name)
		}
		siblings := fieldNames(st.Fields)
		seen := map[string]bool{}
		for _, f := range st.Fields {
			if seen[f.Name] {
				v.errorf(st.Name, ErrDuplicateDecl, f.Name, f.Pos,
					"field %q duplicated in struct %q", f.Name, st.Name)
			}
			seen[f.Name] = true
			v.checkType(st.Name, f.Type, siblings, true)
		}
		v.checkRecursion(st.Name, st.Name)
	}
	for _, u := range v.file.Unions {
		if len(u.Fields) == 0 {
			v.errorf(u.Name, ErrEmptyDecl, u.Name, u.Pos, "union %q has no options", u.Name)
		}
		for _, f := range u.Fields {
			v.checkType(u.Name, f.Type, nil, true)
		}
		v.checkRecursion(u.Name, u.Name)
	}
	for _, fl := range v.file.Flags {
		if len(fl.Values) == 0 {
			v.errorf(fl.Name, ErrEmptyDecl, fl.Name, fl.Pos, "flags %q has no values", fl.Name)
		}
		for _, fv := range fl.Values {
			if fv.Name != "" {
				if _, ok := v.env.Consts[fv.Name]; !ok {
					v.errorf(fl.Name, ErrUnknownConst, fv.Name, fl.Pos,
						"unknown constant %q in flags %q", fv.Name, fl.Name)
				}
			}
		}
	}
}

// checkRecursion detects struct/union cycles that do not pass through
// a pointer (pointer indirection makes recursion representable).
func (v *validator) checkRecursion(root, cur string) {
	if v.resolved[root+"\x00"+cur] {
		return
	}
	v.resolved[root+"\x00"+cur] = true
	var fields []*Field
	var pos Pos
	if st, ok := v.structs[cur]; ok {
		fields, pos = st.Fields, st.Pos
	} else if u, ok := v.unions[cur]; ok {
		fields, pos = u.Fields, u.Pos
	} else {
		return
	}
	for _, f := range fields {
		for _, dep := range directTypeDeps(f.Type) {
			if dep == root {
				v.errorf(root, ErrRecursiveType, cur, pos,
					"type %q recursively contains itself via %q without pointer indirection", root, cur)
				return
			}
			v.checkRecursion(root, dep)
		}
	}
}

// directTypeDeps returns struct/union names embedded in t without
// pointer indirection.
func directTypeDeps(t *TypeExpr) []string {
	if t == nil {
		return nil
	}
	switch t.Ident {
	case "ptr":
		return nil // indirection breaks the cycle
	case "array":
		if len(t.Args) > 0 && t.Args[0].Type != nil {
			return directTypeDeps(t.Args[0].Type)
		}
		return nil
	case "const", "flags", "string", "len", "bytesize", "int8", "int16",
		"int32", "int64", "intptr", "buffer", "vma":
		return nil
	}
	return []string{t.Ident}
}

// checkType validates one type expression. siblings is the set of
// sibling field names (for len[] targets); inStruct reports whether
// the expression appears inside a struct/union (where ptr direction
// rules differ).
func (v *validator) checkType(decl string, t *TypeExpr, siblings map[string]bool, inStruct bool) {
	if t == nil {
		return
	}
	switch t.Ident {
	case "int8", "int16", "int32", "int64", "intptr":
		v.checkIntArgs(decl, t)
	case "bool8", "fd", "pid", "filename", "void":
		if len(t.Args) != 0 {
			v.errorf(decl, ErrBadTypeArgs, t.Ident, t.Pos, "type %q takes no arguments", t.Ident)
		}
	case "const":
		v.checkConst(decl, t)
	case "flags":
		v.checkFlags(decl, t)
	case "ptr":
		v.checkPtr(decl, t, siblings)
	case "array":
		v.checkArray(decl, t, siblings)
	case "string":
		v.checkString(decl, t)
	case "len", "bytesize":
		v.checkLen(decl, t, siblings)
	case "buffer":
		v.checkBuffer(decl, t)
	case "vma":
		// vma takes no args in our subset.
		if len(t.Args) != 0 {
			v.errorf(decl, ErrBadTypeArgs, "vma", t.Pos, "vma takes no arguments")
		}
	default:
		// Must be a declared resource, struct, union, or flags name.
		if _, ok := v.res[t.Ident]; ok {
			if len(t.Args) != 0 {
				v.errorf(decl, ErrBadTypeArgs, t.Ident, t.Pos,
					"resource %q takes no type arguments", t.Ident)
			}
			return
		}
		if v.declaredType(t.Ident) {
			if len(t.Args) != 0 {
				v.errorf(decl, ErrBadTypeArgs, t.Ident, t.Pos,
					"struct/union %q takes no type arguments", t.Ident)
			}
			return
		}
		v.errorf(decl, ErrUndefinedType, t.Ident, t.Pos, "type %q is not defined", t.Ident)
	}
}

func (v *validator) checkIntArgs(decl string, t *TypeExpr) {
	// intN, intN[min:max], intN[const-value]
	if len(t.Args) > 1 {
		v.errorf(decl, ErrBadTypeArgs, t.Ident, t.Pos,
			"%s takes at most one argument (value or range)", t.Ident)
		return
	}
	if len(t.Args) == 1 {
		a := t.Args[0]
		switch {
		case a.HasRange:
			if a.Min > a.Max {
				v.errorf(decl, ErrBadRange, t.Ident, t.Pos,
					"empty range [%d:%d]", a.Min, a.Max)
			}
		case a.HasInt:
		case a.Type != nil && len(a.Type.Args) == 0:
			// Named constant as value, e.g. int32[PAGE_SIZE].
			if _, ok := v.env.Consts[a.Type.Ident]; !ok {
				v.errorf(decl, ErrUnknownConst, a.Type.Ident, t.Pos,
					"unknown constant %q", a.Type.Ident)
			}
		default:
			v.errorf(decl, ErrBadTypeArgs, t.Ident, t.Pos,
				"bad argument %s for %s", a, t.Ident)
		}
	}
}

func (v *validator) checkConst(decl string, t *TypeExpr) {
	if len(t.Args) < 1 || len(t.Args) > 2 {
		v.errorf(decl, ErrBadTypeArgs, "const", t.Pos,
			"const requires a value and optional int size: const[VALUE, intN]")
		return
	}
	a := t.Args[0]
	switch {
	case a.HasInt:
	case a.Type != nil && len(a.Type.Args) == 0:
		if _, ok := v.env.Consts[a.Type.Ident]; !ok {
			v.errorf(decl, ErrUnknownConst, a.Type.Ident, t.Pos,
				"unknown constant %q in const[]", a.Type.Ident)
		}
	default:
		v.errorf(decl, ErrBadTypeArgs, "const", t.Pos, "bad const value %s", a)
	}
	if len(t.Args) == 2 {
		v.checkSizeArg(decl, t, t.Args[1])
	}
}

func (v *validator) checkSizeArg(decl string, t *TypeExpr, a *TypeArg) {
	if a.Type == nil || !builtinScalar[a.Type.Ident] || len(a.Type.Args) != 0 {
		v.errorf(decl, ErrBadTypeArgs, t.Ident, t.Pos,
			"size argument of %s must be a plain int type, got %s", t.Ident, a)
	}
}

func (v *validator) checkFlags(decl string, t *TypeExpr) {
	if len(t.Args) < 1 || len(t.Args) > 2 {
		v.errorf(decl, ErrBadTypeArgs, "flags", t.Pos,
			"flags requires a flag-set name and optional int size")
		return
	}
	a := t.Args[0]
	if a.Type == nil || len(a.Type.Args) != 0 {
		v.errorf(decl, ErrBadTypeArgs, "flags", t.Pos, "bad flags reference %s", a)
		return
	}
	if _, ok := v.flags[a.Type.Ident]; !ok {
		v.errorf(decl, ErrUndefinedType, a.Type.Ident, t.Pos,
			"flags set %q is not defined", a.Type.Ident)
	}
	if len(t.Args) == 2 {
		v.checkSizeArg(decl, t, t.Args[1])
	}
}

var validDirs = map[string]bool{"in": true, "out": true, "inout": true}

func (v *validator) checkPtr(decl string, t *TypeExpr, siblings map[string]bool) {
	if len(t.Args) != 2 {
		v.errorf(decl, ErrBadTypeArgs, "ptr", t.Pos,
			"ptr requires direction and element type: ptr[dir, type]")
		return
	}
	d := t.Args[0]
	if d.Type == nil || !validDirs[d.Type.Ident] {
		v.errorf(decl, ErrBadDirection, "", t.Pos,
			"ptr direction must be in/out/inout, got %s", d)
	}
	if t.Args[1].Type == nil {
		v.errorf(decl, ErrBadTypeArgs, "ptr", t.Pos, "bad ptr element %s", t.Args[1])
		return
	}
	v.checkType(decl, t.Args[1].Type, siblings, true)
}

func (v *validator) checkArray(decl string, t *TypeExpr, siblings map[string]bool) {
	if len(t.Args) < 1 || len(t.Args) > 2 {
		v.errorf(decl, ErrBadTypeArgs, "array", t.Pos,
			"array requires element type and optional size: array[type, n]")
		return
	}
	if t.Args[0].Type == nil {
		v.errorf(decl, ErrBadTypeArgs, "array", t.Pos, "bad array element %s", t.Args[0])
		return
	}
	v.checkType(decl, t.Args[0].Type, siblings, true)
	if len(t.Args) == 2 {
		a := t.Args[1]
		if !a.HasInt && !a.HasRange {
			v.errorf(decl, ErrBadTypeArgs, "array", t.Pos,
				"array size must be an integer or range, got %s", a)
		}
	}
}

func (v *validator) checkString(decl string, t *TypeExpr) {
	if len(t.Args) > 1 {
		v.errorf(decl, ErrBadTypeArgs, "string", t.Pos, "string takes at most one argument")
		return
	}
	if len(t.Args) == 1 {
		a := t.Args[0]
		if !a.HasStr {
			v.errorf(decl, ErrBadStringLiteral, "", t.Pos,
				"string argument must be a quoted literal, got %s", a)
		}
	}
}

func (v *validator) checkLen(decl string, t *TypeExpr, siblings map[string]bool) {
	if len(t.Args) != 2 {
		v.errorf(decl, ErrBadTypeArgs, t.Ident, t.Pos,
			"%s requires target field and int size: %s[field, intN]", t.Ident, t.Ident)
		return
	}
	target := t.Args[0]
	if target.Type == nil || len(target.Type.Args) != 0 {
		v.errorf(decl, ErrBadTypeArgs, t.Ident, t.Pos, "bad %s target %s", t.Ident, target)
		return
	}
	name := target.Type.Ident
	if siblings != nil && !siblings[name] {
		v.errorf(decl, ErrBadLenTarget, name, t.Pos,
			"%s target %q is not a sibling field", t.Ident, name)
	}
	v.checkSizeArg(decl, t, t.Args[1])
}

func (v *validator) checkBuffer(decl string, t *TypeExpr) {
	if len(t.Args) != 1 || t.Args[0].Type == nil || !validDirs[t.Args[0].Type.Ident] {
		v.errorf(decl, ErrBadTypeArgs, "buffer", t.Pos,
			"buffer requires a direction: buffer[dir]")
	}
}

// ValidationErrorsToErrors converts the structured slice to []error.
func ValidationErrorsToErrors(verrs []*ValidationError) []error {
	out := make([]error, len(verrs))
	for i, e := range verrs {
		out[i] = e
	}
	return out
}
