package activity_test

import (
	"fmt"

	"dnsbackscatter/internal/activity"
)

// ExampleParseClass round-trips the paper's application-class labels.
func ExampleParseClass() {
	cls, ok := activity.ParseClass("spam")
	fmt.Println(cls, ok, cls.Malicious())
	// Output:
	// spam true true
}
