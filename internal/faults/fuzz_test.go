package faults

import "testing"

// FuzzFaultsParse: Parse never panics, and a spec it accepts renders
// through Plan.String into a spec that parses back to the same profile and
// seed. The seed corpus (testdata/fuzz/FuzzFaultsParse) is every built-in
// profile, bare and seeded, plus the malformed forms TestParse rejects.
func FuzzFaultsParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		again, err := Parse(p.String())
		switch {
		case err != nil:
			t.Fatalf("Parse(%q) renders as %q, which fails: %v", spec, p.String(), err)
		case (p == nil) != (again == nil):
			t.Fatalf("Parse(%q) = %v, its rendering %q parses as %v", spec, p, p.String(), again)
		case p != nil && (again.Profile != p.Profile || again.Seed != p.Seed):
			t.Fatalf("Parse(%q) = %+v@%d, its rendering %q parses as %+v@%d",
				spec, p.Profile, p.Seed, p.String(), again.Profile, again.Seed)
		}
	})
}
