package lint

import (
	"go/ast"
	"strings"
)

func init() {
	Register(Check{
		Name: "apidoc",
		Doc:  "exported identifiers in internal/ packages must carry doc comments",
		Run:  runAPIDoc,
	})
}

// runAPIDoc enforces doc comments on the exported surface of internal/
// packages — the API other subsystems build on. cmd/ and examples/ mains
// export nothing that matters, and the root package is documented by its
// user-facing files, so only internal/ is checked.
func runAPIDoc(pkg *Package) []Finding {
	if !strings.Contains(pkg.Path+"/", "/internal/") {
		return nil
	}
	var out []Finding
	flag := func(n ast.Node, kind, name string) {
		out = append(out, Finding{
			Pos:     pkg.Fset.Position(n.Pos()),
			Message: "exported " + kind + " " + name + " has no doc comment",
		})
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					flag(d, kind, d.Name.Name)
				}
			case *ast.GenDecl:
				out = append(out, genDeclFindings(pkg, d)...)
			}
		}
	}
	return out
}

// exportedRecv reports whether fd is a plain function or a method on an
// exported type; methods on unexported types are not API surface.
func exportedRecv(fd *ast.FuncDecl) bool {
	r := recvName(fd)
	return r == "" || ast.IsExported(r)
}

// genDeclFindings checks type/const/var declarations. A doc comment on the
// grouped declaration covers every spec inside it, matching how godoc
// renders factored blocks.
func genDeclFindings(pkg *Package, d *ast.GenDecl) []Finding {
	var out []Finding
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
				out = append(out, Finding{
					Pos:     pkg.Fset.Position(s.Pos()),
					Message: "exported type " + s.Name.Name + " has no doc comment",
				})
			}
		case *ast.ValueSpec:
			if s.Doc != nil || d.Doc != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					out = append(out, Finding{
						Pos:     pkg.Fset.Position(name.Pos()),
						Message: "exported " + d.Tok.String() + " " + name.Name + " has no doc comment",
					})
					break
				}
			}
		}
	}
	return out
}
