package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

func init() {
	Register(Check{
		Name: "concurrency",
		Doc:  "goroutine hygiene: no unbounded go-in-loop outside internal/parallel, no WaitGroup.Add inside the spawned goroutine, no defer-unlock in loops, no channel sends that can never drain",
		Run:  runConcurrency,
	})
}

// concurrencyExempt lists the packages allowed to spawn goroutines in
// loops: internal/parallel owns bounded fan-out for everyone else, and
// servers/mains drive real listeners where a goroutine per accepted
// connection is the intended shape.
var concurrencyExempt = []string{
	"/internal/parallel",
	"/cmd/",
	"/examples/",
}

func runConcurrency(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !under(pkg.Path, concurrencyExempt) {
				out = append(out, goInLoopFindings(pkg, fd)...)
			}
			out = append(out, wgAddInGoroutineFindings(pkg, fd)...)
			out = append(out, deferUnlockInLoopFindings(pkg, fd)...)
			out = append(out, deadSendFindings(pkg, fd)...)
		}
	}
	return out
}

// goInLoopFindings flags `go` statements lexically inside a for/range
// body: each iteration spawns another goroutine with nothing bounding the
// fleet. Bounded fan-out belongs in internal/parallel.
func goInLoopFindings(pkg *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		switch n := n.(type) {
		case *ast.ForStmt:
			walkChildren(n.Body, func(c ast.Node) { walk(c, true) })
			return
		case *ast.RangeStmt:
			walkChildren(n.Body, func(c ast.Node) { walk(c, true) })
			return
		case *ast.GoStmt:
			if inLoop {
				out = append(out, Finding{
					Pos:     pkg.Fset.Position(n.Pos()),
					Message: "unbounded goroutine spawn: go statement inside a loop; fan out through internal/parallel instead",
				})
			}
		case *ast.FuncLit:
			// A nested function literal resets loop context: spawning once
			// from a closure that happens to be defined in a loop is the
			// closure's business.
			walkChildren(n.Body, func(c ast.Node) { walk(c, false) })
			return
		}
		walkChildren(n, func(c ast.Node) { walk(c, inLoop) })
	}
	walk(fd.Body, false)
	return out
}

// walkChildren invokes fn on each direct child node of n.
func walkChildren(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}

// wgAddInGoroutineFindings flags sync.WaitGroup.Add calls made inside the
// goroutine being counted: the spawned body races with the parent's Wait,
// which can return before Add runs. Add must happen before `go`.
func wgAddInGoroutineFindings(pkg *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if _, isLit := m.(*ast.FuncLit); isLit && m != lit {
				return false // a nested spawn is its own GoStmt, visited separately
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Add" {
				return true
			}
			if syncTypeName(pkg.Info.TypeOf(sel.X)) == "WaitGroup" {
				out = append(out, Finding{
					Pos:     pkg.Fset.Position(call.Pos()),
					Message: "sync.WaitGroup.Add inside the spawned goroutine races with Wait; call Add before the go statement",
				})
			}
			return true
		})
		return true
	})
	return out
}

// deferUnlockInLoopFindings flags `defer mu.Unlock()` inside a loop body:
// the defer runs at function exit, not iteration end, so the second
// iteration self-deadlocks (and RUnlocks pile up).
func deferUnlockInLoopFindings(pkg *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	var loops []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, n.Body)
		case *ast.RangeStmt:
			loops = append(loops, n.Body)
		case *ast.FuncLit:
			return false // its defers scope to the literal, checked via its own spawn
		}
		return true
	})
	for _, body := range loops {
		ast.Inspect(body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			df, ok := n.(*ast.DeferStmt)
			if !ok {
				return true
			}
			sel, ok := df.Call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name := sel.Sel.Name; name != "Unlock" && name != "RUnlock" {
				return true
			}
			if t := syncTypeName(pkg.Info.TypeOf(sel.X)); t == "Mutex" || t == "RWMutex" {
				out = append(out, Finding{
					Pos:     pkg.Fset.Position(df.Pos()),
					Message: "defer " + exprString(pkg.Fset, sel) + " inside a loop runs at function exit, not iteration end; unlock explicitly or hoist the body into a function",
				})
			}
			return true
		})
	}
	return out
}

// syncTypeName returns the bare name of a sync package type ("Mutex",
// "RWMutex", "WaitGroup", "Once", "Cond"), or "" for anything else.
// Pointers are dereferenced, so a *sync.Mutex identifies its lock too.
func syncTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	switch obj.Name() {
	case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond":
		return obj.Name()
	}
	return ""
}

// deadSendFindings flags sends on a channel made locally in fd that is
// never received from, ranged over, closed, or passed anywhere else in
// the function: nothing can ever drain it, so the send blocks forever
// (or, buffered, strands the values).
func deadSendFindings(pkg *Package, fd *ast.FuncDecl) []Finding {
	type chanUse struct {
		sends           []ast.Node
		drains, escapes int
	}
	local := map[types.Object]*chanUse{}

	// Pass 1: channels created by make(chan ...) and bound to a local.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
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
			if !ok || fn.Name != "make" || len(call.Args) == 0 {
				continue
			}
			if _, isChan := pkg.Info.TypeOf(call.Args[0]).(*types.Chan); !isChan {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pkg.Info.ObjectOf(id); obj != nil {
					local[obj] = &chanUse{}
				}
			}
		}
		return true
	})
	if len(local) == 0 {
		return nil
	}

	use := func(e ast.Expr) *chanUse {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		return local[pkg.Info.Uses[id]]
	}

	// Pass 2: classify every use. Anything that hands the channel to
	// other code (argument, return, store, non-local assignment) counts
	// as an escape and absolves the function of draining it.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if u := use(n.Chan); u != nil {
				u.sends = append(u.sends, n)
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				if u := use(n.X); u != nil {
					u.drains++
				}
			}
		case *ast.RangeStmt:
			if u := use(n.X); u != nil {
				u.drains++
			}
		case *ast.CallExpr:
			if fn, ok := n.Fun.(*ast.Ident); ok && fn.Name == "close" {
				if len(n.Args) == 1 {
					if u := use(n.Args[0]); u != nil {
						u.drains++
						return true
					}
				}
			}
			for _, arg := range n.Args {
				if u := use(arg); u != nil {
					u.escapes++
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if u := use(res); u != nil {
					u.escapes++
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if u := use(rhs); u != nil {
					u.escapes++
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if u := use(elt); u != nil {
					u.escapes++
				}
			}
		case *ast.SelectStmt:
			// A select with a default or multiple comms makes liveness
			// judgment unreliable; treat any channel mentioned in a select
			// as drained.
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if u := local[pkg.Info.Uses[id]]; u != nil {
						u.drains++
					}
				}
				return true
			})
			return false
		}
		return true
	})

	var flagged []ast.Node
	for _, u := range local {
		if len(u.sends) == 0 || u.drains > 0 || u.escapes > 0 {
			continue
		}
		flagged = append(flagged, u.sends[0])
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].Pos() < flagged[j].Pos() })
	var out []Finding
	for _, send := range flagged {
		out = append(out, Finding{
			Pos:     pkg.Fset.Position(send.Pos()),
			Message: "send on a locally-made channel with no receive, close, or escape in this function; nothing can drain it",
		})
	}
	return out
}
