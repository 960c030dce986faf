package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

func init() {
	RegisterModule(ModuleCheck{
		Name: "dettaint",
		Doc:  "taint reachability: no function reachable from a Build* pipeline root may hit wall-clock, global randomness, or unsorted map-order emission; simtime/rng are the only cut points",
		Run:  runDetTaint,
	})
}

// taintCutPoints are the sanctioned determinism bridges: traversal stops
// at their boundary, so a pipeline function may call simtime or rng
// freely — those packages own the only legitimate clock and randomness.
var taintCutPoints = []string{
	"/internal/simtime",
	"/internal/rng",
}

func taintCut(path string) bool {
	for _, frag := range taintCutPoints {
		if strings.Contains(path+"/", frag) {
			return true
		}
	}
	return false
}

// detSink is one nondeterminism source found directly in a function body.
type detSink struct {
	pos  token.Pos
	desc string
}

// runDetTaint walks the call graph from the pipeline roots — exported
// Build* functions and anything annotated //bslint:detroot — and reports
// every nondeterminism sink transitively reachable from them, with the
// full call chain in the diagnostic. This is the interprocedural backstop
// behind the per-function determinism check: a wall-clock read hidden two
// helpers deep (or one waved through with a nolint) still cannot reach
// the reproducible pipeline unnoticed.
func runDetTaint(g *Graph, pkgs []*Package) []Finding {
	var roots []*FuncNode
	for _, node := range g.sortedNodes() {
		if taintCut(node.Pkg.Path) || determinismExempt(node.Pkg.Path) {
			continue
		}
		if strings.HasPrefix(node.Fn.Name(), "Build") && node.Fn.Exported() ||
			hasDirective(node.Decl.Doc, "detroot") {
			roots = append(roots, node)
		}
	}
	if len(roots) == 0 {
		return nil
	}

	var out []Finding
	flagged := map[token.Pos]bool{} // a sink is reported once, from its first root
	for _, root := range roots {
		// BFS with parent links so diagnostics carry the shortest chain.
		parent := map[*FuncNode]*FuncNode{}
		queue := []*FuncNode{root}
		visited := map[*FuncNode]bool{root: true}
		for len(queue) > 0 {
			node := queue[0]
			queue = queue[1:]
			for _, sink := range nodeSinks(node) {
				if flagged[sink.pos] {
					continue
				}
				flagged[sink.pos] = true
				out = append(out, Finding{
					Pos: node.Pkg.Fset.Position(sink.pos),
					Message: sink.desc + " is reachable from pipeline root " +
						funcDisplayName(root.Fn) + " (" + chainString(parent, root, node) +
						"); route through simtime/rng or lift it out of the pipeline",
				})
			}
			for _, cs := range node.Calls {
				callee, ok := g.Nodes[cs.Callee]
				if !ok || visited[callee] || taintCut(callee.Pkg.Path) {
					continue
				}
				visited[callee] = true
				parent[callee] = node
				queue = append(queue, callee)
			}
		}
	}
	return out
}

// chainString renders the root → ... → node call chain recorded in the
// BFS parent links.
func chainString(parent map[*FuncNode]*FuncNode, root, node *FuncNode) string {
	var names []string
	for n := node; n != nil; n = parent[n] {
		names = append(names, funcDisplayName(n.Fn))
		if n == root {
			break
		}
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return "chain: " + strings.Join(names, " → ")
}

// nodeSinks scans one function body for direct nondeterminism sources:
// wall-clock reads and waits, global math/rand draws, and unsorted
// map-range emission into returned slices.
func nodeSinks(node *FuncNode) []detSink {
	pkg := node.Pkg
	var sinks []detSink
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, obj := qualifiedUse(pkg, sel)
		switch {
		case pkgPath == "time" && timeForbidden[obj]:
			sinks = append(sinks, detSink{sel.Pos(), "wall-clock read time." + obj})
		case pkgPath == "time" && timeWaits[obj]:
			sinks = append(sinks, detSink{sel.Pos(), "wall-clock wait time." + obj})
		case isRandPkg(pkgPath) && randGlobal[obj]:
			sinks = append(sinks, detSink{sel.Pos(), "global math/rand." + obj})
		case isRandPkg(pkgPath) && obj == "New":
			if call, ok := callOf(pkg, sel); ok && len(call.Args) == 0 {
				sinks = append(sinks, detSink{sel.Pos(), "argless rand.New"})
			}
		}
		return true
	})
	for _, site := range mapOrderSites(pkg, node.Decl) {
		sinks = append(sinks, detSink{site.rng.Pos(), "unsorted map-range emission into " + site.obj.Name()})
	}
	return sinks
}
