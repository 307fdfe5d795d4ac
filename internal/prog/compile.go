package prog

import (
	"fmt"

	"kernelgpt/internal/syzlang"
)

// Compile lowers a validated syzlang file into a Target. The file
// should have passed syzlang.Validate first; Compile reports any
// residual inconsistency as an error rather than panicking, since the
// fuzzer must be robust to generator output (the paper's pipeline
// only fuzzes specs that survived validation).
func Compile(f *syzlang.File, env *syzlang.Env) (*Target, error) {
	c := &compiler{
		env:     env,
		file:    f,
		structs: map[string]*syzlang.StructDef{},
		unions:  map[string]*syzlang.UnionDef{},
		flags:   map[string]*syzlang.FlagsDef{},
		cache:   map[string]*Type{},
		open:    map[*Type]bool{},
	}
	for _, s := range f.Structs {
		c.structs[s.Name] = s
	}
	for _, u := range f.Unions {
		c.unions[u.Name] = u
	}
	for _, fl := range f.Flags {
		c.flags[fl.Name] = fl
	}
	t := &Target{
		ByName:    map[string]*Syscall{},
		Resources: map[string]*ResourceDesc{},
		creators:  map[string][]*Syscall{},
	}
	// direct maps resource name → IDs of the syscalls taking it as an
	// argument (once per such argument, like the lookups it feeds).
	direct := map[string][]int{}
	for _, r := range f.Resources {
		t.Resources[r.Name] = &ResourceDesc{Name: r.Name, Base: r.Base}
	}
	c.target = t
	for _, s := range f.Syscalls {
		sc := &Syscall{Name: s.Name(), CallName: s.CallName, Ret: s.Ret, ID: len(t.Syscalls)}
		for _, a := range s.Args {
			ty, err := c.compileType(a.Type, a.Attrs)
			if err != nil {
				return nil, fmt.Errorf("syscall %s arg %s: %w", sc.Name, a.Name, err)
			}
			sc.Args = append(sc.Args, Field{Name: a.Name, Type: ty})
		}
		if _, dup := t.ByName[sc.Name]; dup {
			return nil, fmt.Errorf("duplicate syscall %s", sc.Name)
		}
		t.Syscalls = append(t.Syscalls, sc)
		t.ByName[sc.Name] = sc
		for _, a := range sc.Args {
			if a.Type.Kind == KindResource {
				direct[a.Type.Res] = append(direct[a.Type.Res], sc.ID)
			}
		}
		if s.Ret != "" {
			// Register as creator for the resource and all its bases.
			for cur := s.Ret; cur != ""; {
				t.creators[cur] = append(t.creators[cur], sc)
				r := t.Resources[cur]
				if r == nil {
					break
				}
				cur = r.Base
			}
		}
	}
	t.memoConsumers(direct)
	return t, nil
}

type compiler struct {
	env     *syzlang.Env
	file    *syzlang.File
	target  *Target
	structs map[string]*syzlang.StructDef
	unions  map[string]*syzlang.UnionDef
	flags   map[string]*syzlang.FlagsDef
	cache   map[string]*Type
	// open holds the struct and union types whose members are still being
	// compiled; a reference to one is a recursive type.
	open  map[*Type]bool
	depth int
}

const maxCompileDepth = 40

var intBytes = map[string]int{
	"int8": 1, "int16": 2, "int32": 4, "int64": 8, "intptr": 8, "bool8": 1,
}

func (c *compiler) compileType(te *syzlang.TypeExpr, attrs []string) (*Type, error) {
	if c.depth++; c.depth > maxCompileDepth {
		return nil, fmt.Errorf("type nesting too deep at %s", te.Ident)
	}
	defer func() { c.depth-- }()
	ty, err := c.compileType1(te)
	if err != nil {
		return nil, err
	}
	ty.holds |= ty.Kind.set() // on top of what compileType1 collected below it
	for _, a := range attrs {
		if a == "out" {
			ty.Out = true
		}
	}
	return ty, nil
}

func (c *compiler) compileType1(te *syzlang.TypeExpr) (*Type, error) {
	if n, ok := intBytes[te.Ident]; ok {
		ty := &Type{Kind: KindInt, Bytes: n}
		if len(te.Args) == 1 {
			a := te.Args[0]
			switch {
			case a.HasRange:
				ty.Ranged, ty.Min, ty.Max = true, a.Min, a.Max
			case a.HasInt:
				ty.Kind = KindConst
				ty.Val = a.Int
			case a.Type != nil:
				v, ok := c.constVal(a.Type.Ident)
				if !ok {
					return nil, fmt.Errorf("unknown constant %q", a.Type.Ident)
				}
				ty.Kind = KindConst
				ty.Val = v
			}
		}
		return ty, nil
	}
	switch te.Ident {
	case "fd", "pid":
		return &Type{Kind: KindInt, Bytes: 4}, nil
	case "filename":
		return &Type{Kind: KindString}, nil
	case "void":
		return &Type{Kind: KindBuffer}, nil
	case "const":
		return c.compileConst(te)
	case "flags":
		return c.compileFlags(te)
	case "ptr":
		return c.compilePtr(te)
	case "array":
		return c.compileArray(te)
	case "string":
		ty := &Type{Kind: KindString}
		if len(te.Args) == 1 && te.Args[0].HasStr {
			ty.Str = te.Args[0].Str
		}
		return ty, nil
	case "len", "bytesize":
		return c.compileLen(te)
	case "buffer":
		ty := &Type{Kind: KindBuffer}
		if len(te.Args) == 1 && te.Args[0].Type != nil {
			ty.Dir = parseDir(te.Args[0].Type.Ident)
		}
		return ty, nil
	case "vma":
		return &Type{Kind: KindInt, Bytes: 8}, nil
	}
	// Resource, struct, or union reference.
	if _, ok := c.target.Resources[te.Ident]; ok {
		return &Type{Kind: KindResource, Res: te.Ident, Bytes: 4}, nil
	}
	if cached, ok := c.cache["s:"+te.Ident]; ok {
		if c.open[cached] {
			cached.holds = allKinds // its remaining members are not known yet
		}
		return cached, nil
	}
	if st, ok := c.structs[te.Ident]; ok {
		return c.compileStruct(st)
	}
	if u, ok := c.unions[te.Ident]; ok {
		return c.compileUnion(u)
	}
	return nil, fmt.Errorf("undefined type %q", te.Ident)
}

func (c *compiler) constVal(name string) (uint64, bool) {
	v, ok := c.env.Consts[name]
	return v, ok
}

func (c *compiler) compileConst(te *syzlang.TypeExpr) (*Type, error) {
	if len(te.Args) < 1 {
		return nil, fmt.Errorf("const needs a value")
	}
	ty := &Type{Kind: KindConst, Bytes: 4}
	a := te.Args[0]
	switch {
	case a.HasInt:
		ty.Val = a.Int
	case a.Type != nil:
		v, ok := c.constVal(a.Type.Ident)
		if !ok {
			return nil, fmt.Errorf("unknown constant %q", a.Type.Ident)
		}
		ty.Val = v
	default:
		return nil, fmt.Errorf("bad const value")
	}
	if len(te.Args) == 2 && te.Args[1].Type != nil {
		if n, ok := intBytes[te.Args[1].Type.Ident]; ok {
			ty.Bytes = n
		}
	}
	// Command values exceeding 32 bits of meaning still travel as the
	// syscall's natural word; widen consts that overflow 4 bytes.
	if ty.Val > 0xffffffff && ty.Bytes < 8 {
		ty.Bytes = 8
	}
	return ty, nil
}

func (c *compiler) compileFlags(te *syzlang.TypeExpr) (*Type, error) {
	if len(te.Args) < 1 || te.Args[0].Type == nil {
		return nil, fmt.Errorf("flags needs a set name")
	}
	fl, ok := c.flags[te.Args[0].Type.Ident]
	if !ok {
		return nil, fmt.Errorf("undefined flags set %q", te.Args[0].Type.Ident)
	}
	ty := &Type{Kind: KindFlags, Bytes: 4}
	for _, v := range fl.Values {
		if v.Name != "" {
			cv, ok := c.constVal(v.Name)
			if !ok {
				return nil, fmt.Errorf("unknown constant %q in flags", v.Name)
			}
			ty.Vals = append(ty.Vals, cv)
			continue
		}
		ty.Vals = append(ty.Vals, v.Value)
	}
	if len(te.Args) == 2 && te.Args[1].Type != nil {
		if n, ok := intBytes[te.Args[1].Type.Ident]; ok {
			ty.Bytes = n
		}
	}
	for _, v := range ty.Vals {
		if v > 0xffffffff && ty.Bytes < 8 {
			ty.Bytes = 8
		}
	}
	return ty, nil
}

func (c *compiler) compilePtr(te *syzlang.TypeExpr) (*Type, error) {
	if len(te.Args) != 2 || te.Args[0].Type == nil || te.Args[1].Type == nil {
		return nil, fmt.Errorf("ptr needs direction and element")
	}
	elem, err := c.compileType(te.Args[1].Type, nil)
	if err != nil {
		return nil, err
	}
	return &Type{Kind: KindPtr, Dir: parseDir(te.Args[0].Type.Ident), Elem: elem, holds: elem.holds}, nil
}

func (c *compiler) compileArray(te *syzlang.TypeExpr) (*Type, error) {
	if len(te.Args) < 1 || te.Args[0].Type == nil {
		return nil, fmt.Errorf("array needs an element type")
	}
	elem, err := c.compileType(te.Args[0].Type, nil)
	if err != nil {
		return nil, err
	}
	ty := &Type{Kind: KindArray, Elem: elem, FixedLen: -1, holds: elem.holds}
	if len(te.Args) == 2 {
		a := te.Args[1]
		switch {
		case a.HasInt:
			ty.FixedLen = int(a.Int)
		case a.HasRange:
			// Size range: keep variable but bounded; record in Min/Max.
			ty.Ranged, ty.Min, ty.Max = true, a.Min, a.Max
		}
	}
	return ty, nil
}

func (c *compiler) compileLen(te *syzlang.TypeExpr) (*Type, error) {
	if len(te.Args) != 2 || te.Args[0].Type == nil {
		return nil, fmt.Errorf("len needs target and size")
	}
	ty := &Type{Kind: KindLen, LenTarget: te.Args[0].Type.Ident, Bytes: 4, InBytes: te.Ident == "bytesize"}
	if te.Args[1].Type != nil {
		if n, ok := intBytes[te.Args[1].Type.Ident]; ok {
			ty.Bytes = n
		}
	}
	return ty, nil
}

func (c *compiler) compileStruct(st *syzlang.StructDef) (*Type, error) {
	key := "s:" + st.Name
	ty := &Type{Kind: KindStruct, StructName: st.Name}
	c.cache[key] = ty // pre-register for pointer recursion
	c.open[ty] = true
	defer delete(c.open, ty)
	for _, f := range st.Fields {
		ft, err := c.compileType(f.Type, f.Attrs)
		if err != nil {
			delete(c.cache, key)
			return nil, fmt.Errorf("struct %s field %s: %w", st.Name, f.Name, err)
		}
		ty.Fields = append(ty.Fields, Field{Name: f.Name, Type: ft})
		ty.holds |= ft.holds
	}
	return ty, nil
}

func (c *compiler) compileUnion(u *syzlang.UnionDef) (*Type, error) {
	key := "s:" + u.Name
	ty := &Type{Kind: KindUnion, StructName: u.Name}
	c.cache[key] = ty
	c.open[ty] = true
	defer delete(c.open, ty)
	for _, f := range u.Fields {
		ft, err := c.compileType(f.Type, f.Attrs)
		if err != nil {
			delete(c.cache, key)
			return nil, fmt.Errorf("union %s field %s: %w", u.Name, f.Name, err)
		}
		ty.Fields = append(ty.Fields, Field{Name: f.Name, Type: ft})
		ty.holds |= ft.holds
	}
	return ty, nil
}

func parseDir(s string) Dir {
	switch s {
	case "out":
		return DirOut
	case "inout":
		return DirInOut
	}
	return DirIn
}
