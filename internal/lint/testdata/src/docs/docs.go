// Package docs is the fixture for the docs module check. Its go.mod makes
// this directory a module root, so the check reads the Markdown here:
// README.md holds one broken reference of each kind.
package docs
