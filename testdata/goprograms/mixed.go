// Mixed structure: a detached goroutine (plain async, never joined),
// a tracked WaitGroup span, and control flow around both.
package main

import "sync"

func log()     {}
func compute() {}

func main() {
	go log() // detached: may run in parallel with everything below

	var wg sync.WaitGroup
	if true {
		wg.Add(1)
		go func() {
			defer wg.Done()
			compute()
		}()
	}
	wg.Wait()

	switch 0 {
	case 0:
		compute()
	default:
		log()
	}
}
