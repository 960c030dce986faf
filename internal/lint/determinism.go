package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

func init() {
	Register(Check{
		Name: "determinism",
		Doc:  "forbid wall-clock reads, global math/rand, and unsorted map-order output outside the sanctioned packages",
		Run:  runDeterminism,
	})
}

// determinismAllowed lists the import-path fragments where wall-clock and
// global-randomness calls are sanctioned: the simtime/rng bridges
// themselves, and the operational mains and examples that genuinely run in
// real time.
var determinismAllowed = []string{
	"/internal/simtime",
	"/internal/rng",
	"/cmd/",
	"/examples/",
}

// timeForbidden names the time package functions that read the wall clock.
var timeForbidden = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// timeWaits names the time package functions that block on (or schedule
// against) the wall clock. Simulated components advance simtime instead;
// a real-time wait in library code stalls the deterministic pipeline and
// couples test timing to the host scheduler.
var timeWaits = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// randGlobal names the math/rand package-level functions that draw from
// the unseeded process-global source. Constructors (New, NewSource,
// NewZipf) are excluded: explicitly seeded generators are deterministic.
var randGlobal = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "IntN": true, "Int32": true,
	"Int32N": true, "Int64": true, "Int64N": true, "N": true,
	"Uint32": true, "Uint64": true, "UintN": true, "Uint64N": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

func runDeterminism(pkg *Package) []Finding {
	if under(pkg.Path, determinismAllowed) {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
					out = append(out, mapOrderFindings(pkg, fd)...)
				}
				return true
			}
			pkgPath, obj := qualifiedUse(pkg, sel)
			switch {
			case pkgPath == "time" && timeForbidden[obj]:
				out = append(out, Finding{
					Pos:     pkg.Fset.Position(sel.Pos()),
					Message: "wall-clock read time." + obj + " outside simtime; thread a simtime clock instead",
				})
			case pkgPath == "time" && timeWaits[obj]:
				out = append(out, Finding{
					Pos:     pkg.Fset.Position(sel.Pos()),
					Message: "wall-clock wait time." + obj + " outside simtime; advance simulated time instead",
				})
			case isRandPkg(pkgPath) && randGlobal[obj]:
				out = append(out, Finding{
					Pos:     pkg.Fset.Position(sel.Pos()),
					Message: "global math/rand." + obj + " is seeded per-process; use an internal/rng stream",
				})
			case isRandPkg(pkgPath) && obj == "New":
				// rand.New with an explicit source is fine; argless
				// rand.New (rand/v2 style helpers) is not.
				if call, ok := callOf(pkg, sel); ok && len(call.Args) == 0 {
					out = append(out, Finding{
						Pos:     pkg.Fset.Position(sel.Pos()),
						Message: "argless rand.New draws an unseeded source; use an internal/rng stream",
					})
				}
			}
			return true
		})
	}
	return out
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// qualifiedUse resolves sel to (importPath, name) when sel is a qualified
// reference to a package-level object, e.g. time.Now -> ("time", "Now").
func qualifiedUse(pkg *Package, sel *ast.SelectorExpr) (string, string) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// callOf reports whether sel is the callee of an enclosing call found in
// the type info, returning that call.
func callOf(pkg *Package, sel *ast.SelectorExpr) (*ast.CallExpr, bool) {
	// The parser gives no parent links; the type info records the call's
	// type keyed by the CallExpr, so search the selection's file span.
	for expr := range pkg.Info.Types {
		if call, ok := expr.(*ast.CallExpr); ok && call.Fun == sel {
			return call, true
		}
	}
	return nil, false
}

// mapOrderFindings flags the map-order nondeterminism pattern: a range
// over a map whose body appends to a slice that the function later
// returns, with no sort call on that slice between the loop and the
// return. Go randomizes map iteration order, so such a function emits a
// different permutation every run.
func mapOrderFindings(pkg *Package, fd *ast.FuncDecl) []Finding {
	type appendLoop struct {
		rng *ast.RangeStmt
		obj types.Object
	}
	var loops []appendLoop

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pkg.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, obj := range appendTargets(pkg, rng.Body) {
			loops = append(loops, appendLoop{rng, obj})
		}
		return true
	})
	if len(loops) == 0 {
		return nil
	}

	returned := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if id, ok := res.(*ast.Ident); ok {
				if obj := pkg.Info.Uses[id]; obj != nil {
					returned[obj] = true
				}
			}
		}
		return true
	})
	// A function with named results returns them on a bare `return` too.
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					returned[obj] = true
				}
			}
		}
	}

	var out []Finding
	for _, l := range loops {
		if !returned[l.obj] || sortedAfter(pkg, fd, l.obj, l.rng.End()) {
			continue
		}
		out = append(out, Finding{
			Pos: pkg.Fset.Position(l.rng.Pos()),
			Message: "range over map appends to returned slice " + l.obj.Name() +
				" without a sort; map order makes output nondeterministic",
		})
	}
	return out
}

// appendTargets returns the objects of identifiers assigned from an append
// call inside body: `s = append(s, ...)`.
func appendTargets(pkg *Package, body *ast.BlockStmt) []types.Object {
	var objs []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || i >= len(as.Lhs) {
				continue
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "append" {
				continue
			}
			if _, isBuiltin := pkg.Info.Uses[fn].(*types.Builtin); !isBuiltin {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pkg.Info.ObjectOf(id); obj != nil {
					objs = append(objs, obj)
				}
			}
		}
		return true
	})
	return objs
}

// sortedAfter reports whether a sort/slices ordering call mentioning obj
// appears in fd after pos.
func sortedAfter(pkg *Package, fd *ast.FuncDecl, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path, _ := qualifiedUse(pkg, sel)
		if path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
