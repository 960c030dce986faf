// Package nolintreason is a bslint fixture for the suppression audit.
// TestNolintReason asserts the expected findings directly (the findings
// sit on comment positions, so the `// want` convention cannot annotate
// them): blanket and bare nolint comments are findings, a non-canonical
// spelling is one naming its canonical form, and reasoned canonical comments
// — or ones naming nolintreason itself — pass.
package nolintreason

import "errors"

var errSentinel = errors.New("fixture")

func blanket() error {
	return errSentinel //nolint
}

func bare() error {
	return errSentinel //nolint:errcheck
}

func nonCanonical() error {
	return errSentinel // nolint:errcheck--legacy spelling
}

func reasoned() error {
	return errSentinel //nolint:errcheck — fixture: the sentinel is deliberately unchecked
}

func audited() error {
	return errSentinel //nolint:errcheck,nolintreason -- fixture: naming the audit is the one way to silence it
}
