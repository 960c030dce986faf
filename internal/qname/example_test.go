package qname_test

import (
	"fmt"

	"dnsbackscatter/internal/qname"
)

// ExampleClassify shows the §III-C static name rules: components are
// scanned left to right and the first matching rule wins, so compound
// names resolve the way the paper specifies.
func ExampleClassify() {
	for _, name := range []string{
		"home1-2-3-4.example.com",
		"mail.ns.example.com", // both mail and ns: mail wins
		"a96-7-0-1.deploy.akamaitechnologies.com",
		"zeus17.example.com", // no rule: other-unclassified
		"",                   // no reverse name
	} {
		fmt.Printf("%-42q %s\n", name, qname.Classify(name))
	}
	// Output:
	// "home1-2-3-4.example.com"                  home
	// "mail.ns.example.com"                      mail
	// "a96-7-0-1.deploy.akamaitechnologies.com"  cdn
	// "zeus17.example.com"                       other
	// ""                                         nxdomain
}
