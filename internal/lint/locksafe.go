package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

func init() {
	Register(Check{
		Name: "locksafe",
		Doc:  "methods touching `// guarded by <mu>` fields must lock that mutex or be reachable only from callers that do (interprocedural; suppress with //nolint:locksafe — reason)",
		Run:  runLocksafe,
	})
}

// guardedRe extracts the mutex name from a field comment like
// "// guarded by mu".
var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// lockedStruct records one struct's lock discipline: which mutex fields it
// has and which sibling fields each guards.
type lockedStruct struct {
	name    string          // type name
	mutexes map[string]bool // mutex-typed field names
	guarded map[string]string
}

// lockFnInfo is the per-function summary the interprocedural pass works
// from: what the function locks, what it instantiates, and whom it calls.
type lockFnInfo struct {
	fd *ast.FuncDecl
	fn *types.Func
	// ls/recvObj are set when the function is a method on a guarded
	// struct.
	ls      *lockedStruct
	recvObj types.Object
	// locks maps struct name -> mutex names the body acquires on any
	// value of that struct type (whole-body heuristic, deliberately not
	// path-sensitive).
	locks map[string]map[string]bool
	// creates marks struct names the body instantiates with a composite
	// literal: a freshly-built value is not yet shared, so its fields may
	// be touched lock-free.
	creates map[string]bool
	// callees are the statically-resolved functions the body calls.
	callees []*types.Func
}

// runLocksafe enforces the `// guarded by <mu>` contract interprocedurally:
// a method may touch a guarded field if it locks the mutex itself, or if
// it is unexported and every caller chain within the package provably
// holds the lock (or owns a freshly-constructed instance). Exported
// methods must lock in-body — callers outside the package are invisible.
func runLocksafe(pkg *Package) []Finding {
	structs := guardedStructs(pkg)
	if len(structs) == 0 {
		return nil
	}

	byFunc := map[*types.Func]*lockFnInfo{}
	var infos []*lockFnInfo
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := summarizeFn(pkg, fd, fn, structs)
			byFunc[fn] = info
			infos = append(infos, info)
		}
	}
	callersOf := map[*types.Func][]*lockFnInfo{}
	for _, info := range infos {
		for _, callee := range info.callees {
			callersOf[callee] = append(callersOf[callee], info)
		}
	}

	checker := &lockHeldChecker{byFunc: byFunc, callersOf: callersOf, memo: map[heldKey]bool{}}

	var out []Finding
	for _, info := range infos {
		if info.ls == nil {
			continue
		}
		for _, a := range guardedAccesses(pkg, info) {
			if info.locks[info.ls.name][a.mu] {
				continue
			}
			if !info.fn.Exported() && checker.held(info.fn, info.ls.name, a.mu, map[*types.Func]bool{}) {
				continue // every caller chain holds the lock
			}
			why := "no caller is known to hold it"
			if info.fn.Exported() {
				why = "exported methods must lock in-body"
			} else if len(callersOf[info.fn]) > 0 {
				why = "not every caller chain holds it"
			}
			out = append(out, Finding{
				Pos: pkg.Fset.Position(a.sel.Pos()),
				Message: "field " + a.sel.Sel.Name + " is guarded by " + a.mu +
					" but method " + info.fd.Name.Name + " never locks it and " + why,
			})
		}
	}
	return out
}

// heldKey memoizes lock-held queries per (function, struct, mutex).
type heldKey struct {
	fn *types.Func
	st string
	mu string
}

// lockHeldChecker answers "is mu on struct st always held when fn is
// entered", walking caller chains with optimistic cycle handling (a
// recursive chain is judged by its non-recursive entries).
type lockHeldChecker struct {
	byFunc    map[*types.Func]*lockFnInfo
	callersOf map[*types.Func][]*lockFnInfo
	memo      map[heldKey]bool
}

func (c *lockHeldChecker) held(fn *types.Func, st, mu string, visiting map[*types.Func]bool) bool {
	key := heldKey{fn, st, mu}
	if v, ok := c.memo[key]; ok {
		return v
	}
	if visiting[fn] {
		return true // cycle: defer to the other entry points
	}
	if fn.Exported() {
		return false // callers outside the package are invisible
	}
	callers := c.callersOf[fn]
	if len(callers) == 0 {
		return false // nothing vouches for the contract
	}
	visiting[fn] = true
	ok := true
	for _, caller := range callers {
		if caller.locks[st][mu] || caller.creates[st] {
			continue
		}
		if !c.held(caller.fn, st, mu, visiting) {
			ok = false
			break
		}
	}
	delete(visiting, fn)
	c.memo[key] = ok
	return ok
}

// summarizeFn builds one function's lock summary.
func summarizeFn(pkg *Package, fd *ast.FuncDecl, fn *types.Func, structs map[string]*lockedStruct) *lockFnInfo {
	info := &lockFnInfo{
		fd:      fd,
		fn:      fn,
		locks:   map[string]map[string]bool{},
		creates: map[string]bool{},
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if ls := structs[recvName(fd)]; ls != nil {
			info.ls = ls
			info.recvObj = pkg.Info.Defs[fd.Recv.List[0].Names[0]]
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// x.mu.Lock() on any value of a guarded struct type.
			if lockMethods[n.Sel.Name] {
				if inner, ok := n.X.(*ast.SelectorExpr); ok {
					if st := guardedStructName(pkg, inner.X, structs); st != "" && structs[st].mutexes[inner.Sel.Name] {
						if info.locks[st] == nil {
							info.locks[st] = map[string]bool{}
						}
						info.locks[st][inner.Sel.Name] = true
					}
				}
			}
		case *ast.CompositeLit:
			if st := guardedStructName(pkg, n, structs); st != "" {
				info.creates[st] = true
			}
		case *ast.CallExpr:
			if callee := calleeFunc(pkg, n); callee != nil {
				info.callees = append(info.callees, callee)
			}
		}
		return true
	})
	return info
}

// guardedStructName resolves e's type to a tracked guarded struct name,
// or "".
func guardedStructName(pkg *Package, e ast.Expr, structs map[string]*lockedStruct) string {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != pkg.Path {
		return ""
	}
	if _, tracked := structs[named.Obj().Name()]; !tracked {
		return ""
	}
	return named.Obj().Name()
}

// guardedAccess is one guarded-field access through the receiver.
type guardedAccess struct {
	sel *ast.SelectorExpr
	mu  string
}

// guardedAccesses collects the receiver's guarded-field accesses in a
// method body.
func guardedAccesses(pkg *Package, info *lockFnInfo) []guardedAccess {
	var out []guardedAccess
	ast.Inspect(info.fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !isReceiver(pkg, sel.X, info.recvObj) {
			return true
		}
		if mu, ok := info.ls.guarded[sel.Sel.Name]; ok {
			out = append(out, guardedAccess{sel, mu})
		}
		return true
	})
	return out
}

// guardedStructs finds every struct in pkg that has a sync.Mutex/RWMutex
// field and at least one "// guarded by <mu>" sibling annotation.
func guardedStructs(pkg *Package) map[string]*lockedStruct {
	structs := map[string]*lockedStruct{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			ls := &lockedStruct{name: ts.Name.Name, mutexes: map[string]bool{}, guarded: map[string]string{}}
			for _, field := range st.Fields.List {
				if isMutexType(pkg.Info.TypeOf(field.Type)) {
					for _, name := range field.Names {
						ls.mutexes[name.Name] = true
					}
					continue
				}
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					ls.guarded[name.Name] = mu
				}
			}
			if len(ls.mutexes) > 0 && len(ls.guarded) > 0 {
				structs[ls.name] = ls
			}
			return true
		})
	}
	return structs
}

func isMutexType(t types.Type) bool {
	name := syncTypeName(t)
	return name == "Mutex" || name == "RWMutex"
}

// guardAnnotation returns the mutex name from a field's doc or trailing
// comment, or "" when the field is unannotated.
func guardAnnotation(field *ast.Field) string {
	for _, group := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if group == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(group.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// lockMethods are the sync calls that count as acquiring the guard.
var lockMethods = map[string]bool{"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true}

func isReceiver(pkg *Package, e ast.Expr, recvObj types.Object) bool {
	id, ok := e.(*ast.Ident)
	if !ok || recvObj == nil {
		return false
	}
	return pkg.Info.Uses[id] == recvObj
}
