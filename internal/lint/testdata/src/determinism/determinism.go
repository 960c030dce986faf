// Package determinism is a bslint fixture: every construct the
// determinism check must flag, plus the patterns it must leave alone.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() int64 {
	t := time.Now() // want "wall-clock read time.Now"
	return t.Unix()
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "wall-clock read time.Since"
}

func sleepy() {
	time.Sleep(time.Second) // want "wall-clock wait time.Sleep"
}

func timerWaits() {
	<-time.After(time.Second) // want "wall-clock wait time.After"
	<-time.Tick(time.Second)  // want "wall-clock wait time.Tick"
	_ = time.NewTimer(1)      // want "wall-clock wait time.NewTimer"
	_ = time.NewTicker(1)     // want "wall-clock wait time.NewTicker"
}

func durationMathOK(d time.Duration) time.Duration {
	return d * 2 // time.Duration values themselves are fine
}

func globalRand() int {
	return rand.Intn(10) // want "global math/rand.Intn"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "global math/rand.Shuffle"
}

func seededRandOK() int {
	r := rand.New(rand.NewSource(42)) // explicitly seeded: allowed
	return r.Intn(10)
}

func waived() int64 {
	return time.Now().Unix() //nolint:determinism — fixture // want "wall-clock read time.Now"
}

func mapOrderLeak(m map[string]int) []string {
	var keys []string
	for k := range m { // want "map order makes output nondeterministic"
		keys = append(keys, k)
	}
	return keys
}

func mapOrderSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys) // sorted before return: allowed
	return keys
}

func mapOrderNotReturned(m map[string]int) int {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return len(keys) // only the length escapes: order is irrelevant
}

func mapOrderNamedResult(m map[string]int) (keys []string) {
	for k := range m { // want "map order makes output nondeterministic"
		keys = append(keys, k)
	}
	return
}
