// Package concurrency is a bslint fixture: every goroutine-hygiene
// hazard the concurrency check must flag, plus the shapes it must leave
// alone.
package concurrency

import "sync"

func work() {}

func spawnInLoop(jobs []int) {
	for range jobs {
		go work() // want "unbounded goroutine spawn"
	}
}

func spawnInRange(jobs []int) {
	for _, j := range jobs {
		_ = j
		go work() // want "unbounded goroutine spawn"
	}
}

func spawnOnce() {
	go work() // a single spawn is fine
}

func spawnFromClosureInLoop(jobs []int) {
	for range jobs {
		fn := func() {
			go work() // closure resets loop context: one spawn per call
		}
		fn()
	}
}

func wavedSpawn(jobs []int) {
	for range jobs {
		go work() //nolint:concurrency — fixture: demonstrates suppression of a spawn finding
	}
}

func addInsideGoroutine() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want "races with Wait"
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

func addBeforeGo() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

type store struct {
	mu sync.Mutex
	m  map[string]int
}

func (s *store) bumpAll(keys []string) {
	for _, k := range keys {
		s.mu.Lock()
		defer s.mu.Unlock() // want "runs at function exit, not iteration end"
		s.m[k]++
	}
}

func (s *store) bumpOnce(k string) {
	s.mu.Lock()
	defer s.mu.Unlock() // defer at function scope is the intended shape
	s.m[k]++
}

func deadSend() {
	ch := make(chan int, 1)
	ch <- 1 // want "nothing can drain it"
}

func sendThenReceive() int {
	ch := make(chan int, 1)
	ch <- 1
	return <-ch
}

func handedOff() chan int {
	ch := make(chan int, 1)
	ch <- 1
	return ch // escapes: the caller drains it
}

func selectDrained(done chan struct{}) {
	ch := make(chan int, 1)
	ch <- 1
	select {
	case v := <-ch:
		_ = v
	case <-done:
	}
}
