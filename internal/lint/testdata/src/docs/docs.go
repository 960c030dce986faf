// Package docs is the fixture for the docs module check. Its go.mod makes
// this directory a module root, so the check reads the Markdown here:
// README.md holds one broken reference of each kind, and PERFORMANCE.md
// names some of the hotpath declarations below and leaves the rest out.
package docs

// Documented is a function PERFORMANCE.md lists.
//
//bslint:hotpath
func Documented() {}

// orphan is a function PERFORMANCE.md does not list.
//
//bslint:hotpath
func orphan() {}

// Recv carries one listed and one unlisted hotpath method.
type Recv struct{}

// Seen is listed as Recv.Seen.
//
//bslint:hotpath
func (Recv) Seen() {}

// Hot is not listed.
//
//bslint:hotpath
func (r *Recv) Hot() {}

// Sample is generic: its method is documented as Sample.Add, which a
// parser matching only plain receivers would never check.
type Sample[V any] struct{ vs []V }

// Add is not listed.
//
//bslint:hotpath
func (s *Sample[V]) Add(v V) { s.vs = append(s.vs, v) }

// Pair has two type parameters; its listed method is Pair.Get.
type Pair[K comparable, V any] struct{ m map[K]V }

// Get is listed.
//
//bslint:hotpath
func (p Pair[K, V]) Get(k K) V { return p.m[k] }

// Builder is an annotated type PERFORMANCE.md lists.
//
//bslint:hotpath
type Builder struct{}

// scratch is an annotated type PERFORMANCE.md does not list.
//
//bslint:hotpath
type scratch struct{}
