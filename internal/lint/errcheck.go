package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

func init() {
	Register(Check{
		Name: "errcheck",
		Doc:  "flag discarded errors from Close/Flush/Write and encoding/* encode calls (assign to _ to discard deliberately)",
		Run:  runErrcheck,
	})
}

// errcheckMethods are the method names whose returned error must not be
// dropped on the floor: silently losing a Close/Flush/Write error is how
// truncated datasets and reports happen.
var errcheckMethods = map[string]bool{
	"Close":       true,
	"Flush":       true,
	"Write":       true,
	"WriteString": true,
	"Encode":      true,
}

// neverFails lists receiver types whose Write-family errors are
// documented to always be nil, so discarding them is noise, not risk.
var neverFails = map[string]bool{
	"bytes.Buffer":    true,
	"strings.Builder": true,
	"hash.Hash":       true,
}

func runErrcheck(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			// Only bare expression statements discard results; `_ = f.Close()`
			// and `defer f.Close()` are visible, deliberate choices.
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, recv, returnsErr := calleeInfo(pkg, call)
			if !returnsErr {
				return true
			}
			flagged := errcheckMethods[name] && !neverFails[recv]
			if !flagged {
				// Any error-returning call into an encoding/* package
				// (json.NewEncoder(...).Encode, gob, csv, ...) counts.
				flagged = strings.HasPrefix(recv, "encoding/")
			}
			if flagged {
				out = append(out, Finding{
					Pos: pkg.Fset.Position(call.Pos()),
					Message: "error from " + exprString(pkg.Fset, call.Fun) +
						" is discarded; handle it or assign to _",
				})
			}
			return true
		})
	}
	return out
}

// calleeInfo resolves a call to (method/function name, receiver or package
// qualifier, does it return an error). The qualifier is the receiver's
// fully-qualified type for methods ("bytes.Buffer") and the import path
// for package-level functions ("encoding/json").
func calleeInfo(pkg *Package, call *ast.CallExpr) (name, qualifier string, returnsErr bool) {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return "", "", false
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		qualifier = qualifiedTypeName(recv.Type())
	} else if fn.Pkg() != nil {
		qualifier = fn.Pkg().Path()
	}
	return fn.Name(), qualifier, lastResultIsError(sig)
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// qualifiedTypeName renders a receiver type as "pkgpath.Name", stripping
// pointers, or "" for unnamed receivers.
func qualifiedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
