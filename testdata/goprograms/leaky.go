// A WaitGroup span with an untracked goroutine: the front end must
// NOT claim a finish here (the bare go may outlive Wait), so the span
// lowers scope-less with a diagnostic — the conservative direction.
package main

import "sync"

func tracked()   {}
func untracked() {}

func main() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tracked()
	}()
	go untracked()
	wg.Wait()
	tracked()
}
