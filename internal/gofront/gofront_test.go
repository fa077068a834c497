package gofront

import (
	"strings"
	"testing"

	"fx10/internal/condensed"
)

func lower(t *testing.T, src string) (*condensed.Unit, condensed.Stats) {
	t.Helper()
	u, st, err := Lower(src)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	return u, st
}

func method(t *testing.T, u *condensed.Unit, name string) *condensed.MethodDecl {
	t.Helper()
	for _, m := range u.Methods {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no method %q", name)
	return nil
}

func kinds(nodes []*condensed.Node) []condensed.Kind {
	ks := make([]condensed.Kind, len(nodes))
	for i, n := range nodes {
		ks[i] = n.Kind
	}
	return ks
}

func hasDiag(st condensed.Stats, construct string) bool {
	for _, d := range st.Dropped {
		if strings.Contains(d.Construct, construct) {
			return true
		}
	}
	return false
}

func TestWaitGroupFanOut(t *testing.T) {
	u, st := lower(t, `package main

import "sync"

func work() {}

func main() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}
`)
	main := method(t, u, "main")
	if len(main.Body) != 1 || main.Body[0].Kind != condensed.Finish {
		t.Fatalf("main = %v, want one finish", kinds(main.Body))
	}
	fin := main.Body[0]
	if len(fin.Body) != 1 || fin.Body[0].Kind != condensed.Loop {
		t.Fatalf("finish body = %v, want one loop", kinds(fin.Body))
	}
	loop := fin.Body[0]
	// wg.Add(1) is bookkeeping (no node); the go stmt is the async.
	if len(loop.Body) != 1 || loop.Body[0].Kind != condensed.Async {
		t.Fatalf("loop body = %v, want one async", kinds(loop.Body))
	}
	async := loop.Body[0]
	// defer wg.Done() is bookkeeping; work() is a call.
	if len(async.Body) != 1 || async.Body[0].Kind != condensed.Call || async.Body[0].Callee != "work" {
		t.Fatalf("async body = %v, want call work", kinds(async.Body))
	}
	if len(st.Dropped) != 0 {
		t.Fatalf("dropped %v, want none (coverage %v)", st.Dropped, st.Coverage())
	}
	if st.Coverage() != 1 {
		t.Fatalf("coverage %v, want 1", st.Coverage())
	}
}

func TestErrgroup(t *testing.T) {
	u, st := lower(t, `package main

import "golang.org/x/sync/errgroup"

func fetch() {}

func main() {
	var g errgroup.Group
	g.Go(func() {
		fetch()
	})
	g.Go(fetch)
	g.Wait()
}
`)
	main := method(t, u, "main")
	if len(main.Body) != 1 || main.Body[0].Kind != condensed.Finish {
		t.Fatalf("main = %v, want one finish", kinds(main.Body))
	}
	fin := main.Body[0]
	if len(fin.Body) != 2 || fin.Body[0].Kind != condensed.Async || fin.Body[1].Kind != condensed.Async {
		t.Fatalf("finish body = %v, want two asyncs", kinds(fin.Body))
	}
	// g.Go(fetch): fetch is declared and spawn-free, the call edge is kept.
	if got := fin.Body[1].Body; len(got) != 1 || got[0].Kind != condensed.Call || got[0].Callee != "fetch" {
		t.Fatalf("g.Go(fetch) body = %v, want call fetch", kinds(got))
	}
	if len(st.Dropped) != 0 {
		t.Fatalf("dropped %v, want none", st.Dropped)
	}
}

func TestWaitGroupGoMethod(t *testing.T) {
	// Go 1.25's sync.WaitGroup.Go tracks the spawn by construction.
	u, _ := lower(t, `package main

import "sync"

func work() {}

func main() {
	var wg sync.WaitGroup
	wg.Go(func() { work() })
	wg.Wait()
}
`)
	main := method(t, u, "main")
	if len(main.Body) != 1 || main.Body[0].Kind != condensed.Finish {
		t.Fatalf("main = %v, want one finish", kinds(main.Body))
	}
}

func TestUntrackedGoroutineNoFinish(t *testing.T) {
	// The bare `go work()` inside the span may outlive Wait: emitting a
	// finish would unsoundly prune pairs, so the span lowers scope-less
	// with a diagnostic.
	u, st := lower(t, `package main

import "sync"

func work() {}

func main() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	go work()
	wg.Wait()
}
`)
	main := method(t, u, "main")
	for _, n := range main.Body {
		if n.Kind == condensed.Finish {
			t.Fatalf("finish emitted over a span with an untracked goroutine: %v", kinds(main.Body))
		}
	}
	if !hasDiag(st, "untracked goroutine") {
		t.Fatalf("missing untracked-goroutine diagnostic: %v", st.Dropped)
	}
}

func TestGoroutineWithoutDoneNoFinish(t *testing.T) {
	_, st := lower(t, `package main

import "sync"

func main() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { _ = 0 }()
	wg.Wait()
}
`)
	if !hasDiag(st, "untracked goroutine") {
		t.Fatalf("a spawn without Done must degrade the span: %v", st.Dropped)
	}
}

func TestGroupGoOpaqueWhenCalleeSpawns(t *testing.T) {
	// wg.Go(f) waits for f itself, but a goroutine spawned inside f
	// escapes the Wait: the call edge must be dropped (opaque body),
	// while the finish itself stays (f's own exit is tracked).
	u, st := lower(t, `package main

import "sync"

func leaky() {
	go func() { _ = 0 }()
}

func main() {
	var wg sync.WaitGroup
	wg.Go(leaky)
	wg.Wait()
}
`)
	main := method(t, u, "main")
	if len(main.Body) != 1 || main.Body[0].Kind != condensed.Finish {
		t.Fatalf("main = %v, want one finish", kinds(main.Body))
	}
	async := main.Body[0].Body[0]
	if async.Kind != condensed.Async || len(async.Body) != 1 || async.Body[0].Kind != condensed.Skip {
		t.Fatalf("wg.Go(leaky) must lower opaquely, got %v", kinds(async.Body))
	}
	if !hasDiag(st, "opaque function value") {
		t.Fatalf("missing opaque-callee diagnostic: %v", st.Dropped)
	}
}

func TestNestedGroups(t *testing.T) {
	u, _ := lower(t, `package main

import "sync"

func main() {
	var outer sync.WaitGroup
	outer.Go(func() {
		var inner sync.WaitGroup
		inner.Go(func() { _ = 0 })
		inner.Wait()
	})
	outer.Wait()
}
`)
	main := method(t, u, "main")
	if len(main.Body) != 1 || main.Body[0].Kind != condensed.Finish {
		t.Fatalf("main = %v, want outer finish", kinds(main.Body))
	}
	async := main.Body[0].Body[0]
	if async.Kind != condensed.Async || len(async.Body) != 1 || async.Body[0].Kind != condensed.Finish {
		t.Fatalf("inner span must lower to a nested finish, got %v", kinds(async.Body))
	}
}

func TestWaitGroupWithoutWait(t *testing.T) {
	_, st := lower(t, `package main

import "sync"

func main() {
	var wg sync.WaitGroup
	wg.Add(1)
}
`)
	if !hasDiag(st, "without a same-block Wait") {
		t.Fatalf("missing no-Wait diagnostic: %v", st.Dropped)
	}
}

func TestSpawnForms(t *testing.T) {
	u, st := lower(t, `package main

func work() {}

func main() {
	go work()
	go func() { work() }()
	go undeclared()
	fns := []func(){work}
	go fns[0]()
}
`)
	main := method(t, u, "main")
	// The assignment lowers to a skip; the four spawns to asyncs.
	var asyncs []*condensed.Node
	for _, n := range main.Body {
		if n.Kind == condensed.Async {
			asyncs = append(asyncs, n)
		}
	}
	if len(asyncs) != 4 {
		t.Fatalf("asyncs = %d, want 4 (%v)", len(asyncs), kinds(main.Body))
	}
	if b := asyncs[0].Body; len(b) != 1 || b[0].Kind != condensed.Call || b[0].Callee != "work" {
		t.Fatalf("go work() body = %v", kinds(b))
	}
	// Opaque spawns carry a skip body (conservative summary).
	for i, a := range asyncs[2:] {
		if len(a.Body) != 1 || a.Body[0].Kind != condensed.Skip {
			t.Fatalf("opaque spawn %d body = %v, want skip", i, kinds(a.Body))
		}
	}
	if !hasDiag(st, "undeclared") || !hasDiag(st, "function value") {
		t.Fatalf("missing opaque-spawn diagnostics: %v", st.Dropped)
	}
}

func TestControlFlowAndDrops(t *testing.T) {
	u, st := lower(t, `package main

func main() {
	ch := make(chan int)
	if true {
		ch <- 1
	} else {
		<-ch
	}
	select {
	case v := <-ch:
		_ = v
	default:
	}
	switch 0 {
	case 0:
		return
	}
	for range [2]int{} {
		_ = 0
	}
}
`)
	main := method(t, u, "main")
	var sawIf, sawSwitch, sawLoop int
	for _, n := range main.Body {
		switch n.Kind {
		case condensed.If:
			sawIf++
		case condensed.Switch:
			sawSwitch++
		case condensed.Loop:
			sawLoop++
		}
	}
	if sawIf != 1 || sawSwitch != 2 || sawLoop != 1 {
		t.Fatalf("if=%d switch=%d loop=%d, want 1/2/1 (%v)", sawIf, sawSwitch, sawLoop, kinds(main.Body))
	}
	for _, c := range []string{"channel send", "select"} {
		if !hasDiag(st, c) {
			t.Fatalf("missing %q diagnostic: %v", c, st.Dropped)
		}
	}
	if st.Coverage() >= 1 {
		t.Fatalf("coverage %v, want < 1 with drops", st.Coverage())
	}
}

func TestErrors(t *testing.T) {
	if _, _, err := Lower("package main\n"); err == nil {
		t.Fatal("empty package accepted")
	}
	if _, _, err := Lower("package main\nfunc helper() {}\n"); err == nil {
		t.Fatal("package without main accepted")
	}
	if _, _, err := Lower("not go at all"); err == nil {
		t.Fatal("unparsable source accepted")
	}
}

func TestReceiverMethodsDiagnosed(t *testing.T) {
	_, st := lower(t, `package main

type T struct{}

func (T) M() {}

func main() {}
`)
	if !hasDiag(st, "method with receiver") {
		t.Fatalf("missing receiver-method diagnostic: %v", st.Dropped)
	}
}

func TestSpawnFree(t *testing.T) {
	src := `package main

import "sync"

func leaf() {}
func callsLeaf() { leaf() }
func spawns() { go leaf() }
func callsSpawns() { spawns() }
func cycleA() { cycleB() }
func cycleB() { cycleA() }

func main() {
	var wg sync.WaitGroup
	wg.Go(callsLeaf)
	wg.Go(cycleA)
	wg.Go(callsSpawns)
	wg.Wait()
}
`
	u, st := lower(t, src)
	fin := method(t, u, "main").Body[0]
	if fin.Kind != condensed.Finish || len(fin.Body) != 3 {
		t.Fatalf("main = %v", kinds(method(t, u, "main").Body))
	}
	// callsLeaf and the spawn-free cycle keep their call edges.
	for i, want := range []string{"callsLeaf", "cycleA"} {
		b := fin.Body[i].Body
		if len(b) != 1 || b[0].Kind != condensed.Call || b[0].Callee != want {
			t.Fatalf("wg.Go(%s) body = %v", want, kinds(b))
		}
	}
	// callsSpawns transitively spawns: opaque.
	if b := fin.Body[2].Body; len(b) != 1 || b[0].Kind != condensed.Skip {
		t.Fatalf("wg.Go(callsSpawns) body = %v, want skip", kinds(b))
	}
	if !hasDiag(st, "opaque function value") {
		t.Fatalf("missing diagnostic for spawning callee: %v", st.Dropped)
	}
}
