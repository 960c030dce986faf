package lint

import (
	"fmt"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func init() {
	RegisterModule(ModuleCheck{
		Name: "docs",
		Doc:  "Markdown integrity: relative links and back-ticked file references resolve, and the module root's *.md stay within the prose budget",
		Run:  runDocs,
	})
}

// proseBudget caps the bytes of Markdown at the module root: the docs a
// reader is expected to read whole stay short enough to be read.
const proseBudget = 200 << 10

var (
	// linkRe captures the target of [text](target) inline links.
	linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	// tickRe captures single-back-ticked spans.
	tickRe = regexp.MustCompile("`([^`\n]+)`")
	// pathy decides whether a back-ticked span is meant as a repo path.
	pathy = regexp.MustCompile(`^[\w./-]+$`)
)

// runDocs checks the Markdown of every module the packages belong to:
// the nearest directory at or above each package holding a go.mod.
func runDocs(pkgs []*Package) []Finding {
	seen := map[string]bool{}
	var out []Finding
	for _, pkg := range pkgs {
		if root := moduleRoot(pkg.Dir); root != "" && !seen[root] {
			seen[root] = true
			out = append(out, markdownFindings(root)...)
		}
	}
	return out
}

// moduleRoot returns the nearest directory at or above dir holding a
// go.mod, or "" if there is none.
func moduleRoot(dir string) string {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// markdownFindings walks every *.md under root (skipping .git and
// testdata) for broken references, and holds the root's own *.md to the
// prose budget.
func markdownFindings(root string) []Finding {
	var out []Finding
	total, largest, largestSize := 0, "", 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == ".git" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if filepath.Dir(path) == root {
			total += len(data)
			if len(data) > largestSize {
				largest, largestSize = path, len(data)
			}
		}
		out = append(out, brokenReferences(path, string(data))...)
		return nil
	})
	if err != nil {
		out = append(out, Finding{Pos: token.Position{Filename: root}, Message: "reading Markdown: " + err.Error()})
	}
	if total > proseBudget {
		out = append(out, Finding{
			Pos: token.Position{Filename: largest, Line: 1, Column: 1},
			Message: fmt.Sprintf("the *.md files at the module root total %d bytes, over the %d-byte prose budget; cut the largest, %s",
				total, proseBudget, filepath.Base(largest)),
		})
	}
	return out
}

// brokenReferences reports every relative link ([text](path), a
// trailing #fragment stripped; URLs, in-page fragments and mailto:
// skipped) and back-ticked repo path (`dir/file.go`, `FILE.md`) in one
// Markdown file that does not resolve. Fenced code blocks are skipped.
func brokenReferences(path, text string) []Finding {
	dir := filepath.Dir(path)
	exists := func(rel string) bool {
		_, err := os.Stat(filepath.Join(dir, rel))
		return err == nil
	}
	var out []Finding
	report := func(line, col int, msg string) {
		out = append(out, Finding{Pos: token.Position{Filename: path, Line: line, Column: col}, Message: msg})
	}
	inFence := false
	for i, line := range strings.Split(text, "\n") {
		if fence := strings.HasPrefix(strings.TrimSpace(line), "```"); fence || inFence {
			inFence = inFence != fence // a fence line toggles; lines inside are skipped
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatchIndex(line, -1) {
			target := line[m[2]:m[3]]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if file, _, _ := strings.Cut(target, "#"); file != "" && !exists(file) {
				report(i+1, m[2]+1, fmt.Sprintf("broken link %q", target))
			}
		}
		for _, m := range tickRe.FindAllStringSubmatchIndex(line, -1) {
			ref := line[m[2]:m[3]]
			// URL paths (`/metrics.json`) and bare extensions (`.md`)
			// are not repo references.
			if !pathy.MatchString(ref) || strings.HasPrefix(ref, "/") || strings.HasPrefix(ref, ".") {
				continue
			}
			// Only spans that unambiguously name repo files: a Markdown
			// or JSON document, or a slashed .go path. Other slashed
			// spans (internal/obs, a/b flags, "originator/querier") may
			// be prose and are not checked.
			doc := strings.HasSuffix(ref, ".md") || strings.HasSuffix(ref, ".json")
			if (doc || strings.Contains(ref, "/") && strings.HasSuffix(ref, ".go")) && !exists(ref) {
				report(i+1, m[2]+1, fmt.Sprintf("broken file reference %q", ref))
			}
		}
	}
	return out
}
