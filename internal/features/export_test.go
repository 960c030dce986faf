package features

// The sketch-versus-batch tests live in package features_test because they
// drive internal/stream, which imports this package.
var (
	MkRecs              = mkRecs
	SyntheticCategories = testCategories
)
