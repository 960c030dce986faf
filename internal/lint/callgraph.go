package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Graph is the interprocedural call graph over a set of loaded packages.
// Nodes are the functions and methods declared in those packages; edges
// are the statically-resolvable call sites in their bodies (calls through
// function values and interface methods are not resolved). Calls made
// inside function literals are attributed to the enclosing declaration,
// which is the conservative choice for reachability: a helper that spawns
// a goroutine calling time.Now still taints its caller.
type Graph struct {
	// Nodes maps every declared function to its node, keyed by the
	// go/types object so methods and same-named functions in different
	// packages stay distinct.
	Nodes map[*types.Func]*FuncNode
}

// FuncNode is one declared function in the call graph.
type FuncNode struct {
	// Fn is the type-checker's object for the declaration.
	Fn *types.Func
	// Decl is the syntax, with body and doc comment.
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *Package
	// Calls are the resolved static call sites in the body, in source
	// order.
	Calls []CallSite
}

// CallSite is one resolved call edge out of a function body.
type CallSite struct {
	// Callee is the called function; it may be declared outside the
	// analyzed packages (stdlib), in which case Graph.Nodes has no entry
	// for it.
	Callee *types.Func
	// Pos locates the call expression.
	Pos token.Pos
}

// BuildGraph constructs the call graph for pkgs. Construction is one AST
// pass per package, so module-wide analysis stays well under the bslint
// time budget even with every interprocedural check enabled.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{Nodes: map[*types.Func]*FuncNode{}}
	for _, pkg := range pkgs {
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
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := calleeFunc(pkg, call); callee != nil {
						node.Calls = append(node.Calls, CallSite{Callee: callee, Pos: call.Pos()})
					}
					return true
				})
				g.Nodes[fn] = node
			}
		}
	}
	return g
}

// calleeFunc resolves a call expression to the called *types.Func, or nil
// for calls through builtins, conversions, and function values.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// sortedNodes returns the graph's nodes in source order, the iteration
// order every module check uses so findings come out deterministically.
func (g *Graph) sortedNodes() []*FuncNode {
	nodes := make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		pi, pj := nodes[i].Pkg.Fset.Position(nodes[i].Decl.Pos()), nodes[j].Pkg.Fset.Position(nodes[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	return nodes
}

// directivePrefix introduces bslint magic comments: `//bslint:hotpath`,
// `//bslint:detroot`.
const directivePrefix = "//bslint:"

// hasDirective reports whether a declaration's doc comment carries the
// named bslint directive.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if rest, ok := strings.CutPrefix(text, directivePrefix); ok {
			if field := strings.Fields(rest); len(field) > 0 && field[0] == name {
				return true
			}
		}
	}
	return false
}

// funcDisplayName renders a node's name for call-chain diagnostics:
// "pkg.Func" for functions, "pkg.(*T).Method" style collapsed to
// "pkg.T.Method" for methods.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if tn := qualifiedTypeName(sig.Recv().Type()); tn != "" {
			// qualifiedTypeName yields "path/to/pkg.T"; keep "pkg.T.Method".
			if i := strings.LastIndex(tn, "/"); i >= 0 {
				tn = tn[i+1:]
			}
			return tn + "." + name
		}
	}
	if fn.Pkg() != nil {
		p := fn.Pkg().Path()
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		return p + "." + name
	}
	return name
}
