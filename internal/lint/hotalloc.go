package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

func init() {
	Register(Check{
		Name: "hotalloc",
		Doc:  "allocation discipline in //bslint:hotpath functions: no heap-escaping composite literals, no append-in-loop without preallocation, no fmt or string-copy conversions",
		Run:  runHotalloc,
	})
}

// runHotalloc enforces allocation discipline inside functions annotated
// //bslint:hotpath — the dedup/filter/extract and wire-encode paths whose
// per-record allocations dominate the BENCH trajectory. The rules are
// deliberately narrow: they flag the three patterns profiling showed
// dominating (escaping literals, growing appends, fmt/string churn), not
// allocation in general.
func runHotalloc(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, "hotpath") {
				continue
			}
			out = append(out, escapingLiteralFindings(pkg, fd)...)
			out = append(out, appendGrowthFindings(pkg, fd)...)
			out = append(out, fmtAndStringFindings(pkg, fd)...)
		}
	}
	return out
}

// escapingLiteralFindings flags &T{...} composite literals: taking the
// address forces a heap allocation per call on the hot path. Pooled or
// caller-provided objects keep the allocation out of the loop.
func escapingLiteralFindings(pkg *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ue, ok := n.(*ast.UnaryExpr)
		if !ok || ue.Op.String() != "&" {
			return true
		}
		cl, isLit := ast.Unparen(ue.X).(*ast.CompositeLit)
		if !isLit {
			return true
		}
		lit := "composite literal"
		if cl.Type != nil {
			lit = "&" + exprString(pkg.Fset, cl.Type) + "{...}"
		}
		out = append(out, Finding{
			Pos:     pkg.Fset.Position(ue.Pos()),
			Message: "heap-escaping " + lit + " in hotpath; reuse a pooled or caller-provided object",
		})
		return true
	})
	return out
}

// appendGrowthFindings flags appends inside loops to slices declared in
// this function without capacity: each growth step reallocates and
// copies.
func appendGrowthFindings(pkg *Package, fd *ast.FuncDecl) []Finding {
	// Slice declarations with no capacity hint — `var s []T`,
	// `s := []T{}`, and `s := make([]T, 0)` — mapped to their []T syntax.
	decls := map[types.Object]ast.Expr{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 || vs.Type == nil {
					continue
				}
				at, ok := vs.Type.(*ast.ArrayType)
				if !ok || at.Len != nil {
					continue
				}
				for _, name := range vs.Names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						decls[obj] = vs.Type
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := pkg.Info.Defs[id]
			if obj == nil {
				return true
			}
			switch rhs := n.Rhs[0].(type) {
			case *ast.CompositeLit:
				if at, ok := rhs.Type.(*ast.ArrayType); ok && at.Len == nil && len(rhs.Elts) == 0 {
					decls[obj] = rhs.Type
				}
			case *ast.CallExpr:
				fn, ok := rhs.Fun.(*ast.Ident)
				if !ok || fn.Name != "make" || len(rhs.Args) != 2 {
					return true
				}
				if at, ok := rhs.Args[0].(*ast.ArrayType); ok && at.Len == nil {
					decls[obj] = rhs.Args[0]
				}
			}
		}
		return true
	})
	if len(decls) == 0 {
		return nil
	}

	var out []Finding
	flagged := map[types.Object]bool{}
	// depth counts enclosing loops.
	var inLoop func(n ast.Node, depth int)
	inLoop = func(n ast.Node, depth int) {
		switch n := n.(type) {
		case *ast.RangeStmt:
			walkChildren(n.Body, func(c ast.Node) { inLoop(c, depth+1) })
			return
		case *ast.ForStmt:
			walkChildren(n.Body, func(c ast.Node) { inLoop(c, depth+1) })
			return
		case *ast.AssignStmt:
			if depth == 0 {
				break // append outside any loop grows at most once; fine
			}
			for _, obj := range appendTargets(pkg, &ast.BlockStmt{List: []ast.Stmt{n}}) {
				typeExpr, tracked := decls[obj]
				if !tracked || flagged[obj] {
					continue
				}
				flagged[obj] = true
				out = append(out, Finding{
					Pos:     pkg.Fset.Position(n.Pos()),
					Message: "append to " + obj.Name() + " in a loop without preallocation; declare it with make(" + nodeText(pkg.Fset, typeExpr) + ", 0, cap) in hotpath",
				})
			}
		}
		walkChildren(n, func(c ast.Node) { inLoop(c, depth) })
	}
	for _, stmt := range fd.Body.List {
		inLoop(stmt, 0)
	}
	return out
}

// nodeText renders an AST node back to source, for messages that restate
// part of the original (e.g. a slice's element type).
func nodeText(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return ""
	}
	return buf.String()
}

// fmtAndStringFindings flags fmt package calls and string<->[]byte/[]rune
// conversions: both allocate and copy per record. Hot paths use strconv,
// preallocated scratch buffers, or interned names instead.
func fmtAndStringFindings(pkg *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			// fmt.Errorf is exempt: error construction only runs on the
			// cold failure path, and wrapping with %w has no cheap
			// substitute.
			if path, name := qualifiedUse(pkg, sel); path == "fmt" && name != "Errorf" {
				out = append(out, Finding{
					Pos:     pkg.Fset.Position(call.Pos()),
					Message: "fmt." + name + " allocates on the hotpath; use strconv or a preallocated buffer",
				})
				return true
			}
		}
		// Type conversions: the callee is a type, not a function.
		tv, ok := pkg.Info.Types[call.Fun]
		if !ok || !tv.IsType() || len(call.Args) != 1 {
			return true
		}
		dst := tv.Type.Underlying()
		src := pkg.Info.TypeOf(call.Args[0])
		if src == nil {
			return true
		}
		if conversionCopies(dst, src.Underlying()) {
			out = append(out, Finding{
				Pos:     pkg.Fset.Position(call.Pos()),
				Message: "conversion " + exprString(pkg.Fset, call.Fun) + "(...) copies its operand on the hotpath; reuse a scratch buffer or intern the value",
			})
		}
		return true
	})
	return out
}

// conversionCopies reports whether converting src to dst allocates and
// copies: string <-> []byte and string <-> []rune in either direction.
func conversionCopies(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteRuneSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteRuneSlice(src)) || (isByteRuneSlice(dst) && isStr(src))
}
