package condensed

import (
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/syntax"
)

// unit builds: main { finish { async { skip } }  if { call f } else { return } }
// f { loop { async(1) { skip } } }
func testUnit() *Unit {
	return &Unit{Methods: []*MethodDecl{
		{Name: "main", Body: []*Node{
			{Kind: Finish, Body: []*Node{
				{Kind: Async, Body: []*Node{{Kind: Skip}}},
			}},
			{Kind: If,
				Body: []*Node{{Kind: Call, Callee: "f"}},
				Else: []*Node{{Kind: Return}},
			},
		}},
		{Name: "f", Body: []*Node{
			{Kind: Loop, Body: []*Node{
				{Kind: Async, Place: 1, Body: []*Node{{Kind: Skip}}},
			}},
		}},
	}}
}

func TestNodeCounts(t *testing.T) {
	c := testUnit().NodeCounts()
	want := map[Kind]int{
		Method: 2, Finish: 1, Async: 2, Skip: 2, If: 1, Call: 1,
		Return: 1, Loop: 1, Switch: 0,
		// End: main body, finish body, async body, then, else,
		// f body, loop body, inner async body = 8.
		End: 8,
	}
	for k, w := range want {
		if c.Of(k) != w {
			t.Fatalf("%v count = %d, want %d", k, c.Of(k), w)
		}
	}
	if c.Total != 2+1+2+2+1+1+1+1+8 {
		t.Fatalf("total = %d", c.Total)
	}
}

func TestAsyncStats(t *testing.T) {
	s := testUnit().AsyncStats()
	// The finish-wrapped async is plain; the loop async in f is a
	// loop async (even though place-switching: loop wins).
	if s.Total != 2 || s.Plain != 1 || s.Loop != 1 || s.PlaceSwitch != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAsyncStatsFinishCutsLoop(t *testing.T) {
	u := &Unit{Methods: []*MethodDecl{{Name: "main", Body: []*Node{
		{Kind: Loop, Body: []*Node{
			{Kind: Finish, Body: []*Node{
				{Kind: Async, Place: 1, Body: []*Node{{Kind: Skip}}},
			}},
		}},
	}}}}
	s := u.AsyncStats()
	// Finish between loop and async: not a loop async; its place
	// annotation makes it place-switching.
	if s.Loop != 0 || s.PlaceSwitch != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAsyncStatsNestedAsyncInLoop(t *testing.T) {
	u := &Unit{Methods: []*MethodDecl{{Name: "main", Body: []*Node{
		{Kind: Loop, Body: []*Node{
			{Kind: Async, Body: []*Node{
				{Kind: Async, Body: []*Node{{Kind: Skip}}},
			}},
		}},
	}}}}
	s := u.AsyncStats()
	if s.Loop != 2 {
		t.Fatalf("nested async in loop must also count as loop async: %+v", s)
	}
}

func TestLowerShape(t *testing.T) {
	p := MustLower(testUnit())
	if err := syntax.Validate(p); err != nil {
		t.Fatalf("lowered program invalid: %v", err)
	}
	// One instruction per non-End node: finish, async, skip, if-skip,
	// call, return-skip in main = 6; loop, async, skip in f = 3.
	count := 0
	p.EachInstr(func(_ int, _ syntax.Instr) { count++ })
	nonEnd := testUnit().NodeCounts()
	if want := nonEnd.Total - nonEnd.Of(End) - nonEnd.Of(Method); count != want {
		t.Fatalf("lowered instruction count = %d, want %d", count, want)
	}
	// The place annotation survives.
	foundPlaced := false
	p.EachInstr(func(_ int, i syntax.Instr) {
		if a, ok := i.(*syntax.Async); ok && a.Place == 1 {
			foundPlaced = true
		}
	})
	if !foundPlaced {
		t.Fatalf("place-switching async lost in lowering")
	}
}

func TestLoweredProgramAnalyzes(t *testing.T) {
	p := MustLower(testUnit())
	in := labels.Compute(p)
	sol := constraints.Generate(in, constraints.ContextSensitive).Solve(constraints.Phased)
	// The loop async's body in f pairs with itself (the async
	// instruction spawns a body each iteration).
	var selfFound bool
	m := sol.MainM()
	for _, a := range p.AsyncLabels() {
		in.Slabels(syntax.Body(p.Labels[a].Instr)).Each(func(e int) {
			if m.Has(e, e) {
				selfFound = true
			}
		})
	}
	if !selfFound {
		t.Fatalf("loop async body self pair missing after lowering")
	}
}

func TestLowerEmptyBodies(t *testing.T) {
	u := &Unit{Methods: []*MethodDecl{{Name: "main", Body: []*Node{
		{Kind: Finish, Body: nil},
		{Kind: Async, Body: []*Node{{Kind: End}}},
	}}}}
	p := MustLower(u)
	if err := syntax.Validate(p); err != nil {
		t.Fatalf("empty bodies not padded: %v", err)
	}
}

func TestLowerEmptyMethod(t *testing.T) {
	u := &Unit{Methods: []*MethodDecl{{Name: "main", Body: nil}}}
	p := MustLower(u)
	if p.Main().Body == nil {
		t.Fatalf("empty method body not padded")
	}
}

func TestLowerUnknownCalleeFails(t *testing.T) {
	u := &Unit{Methods: []*MethodDecl{{Name: "main", Body: []*Node{
		{Kind: Call, Callee: "missing"},
	}}}}
	if _, err := Lower(u); err == nil {
		t.Fatalf("unresolved callee must fail lowering")
	}
}

func TestSwitchLowering(t *testing.T) {
	u := &Unit{Methods: []*MethodDecl{{Name: "main", Body: []*Node{
		{Kind: Switch, Cases: [][]*Node{
			{{Kind: Skip}},
			{{Kind: Async, Body: []*Node{{Kind: Skip}}}},
		}},
	}}}}
	p := MustLower(u)
	// switch-skip + case-1 skip + async + inner skip = 4 instructions.
	count := 0
	p.EachInstr(func(_ int, _ syntax.Instr) { count++ })
	if count != 4 {
		t.Fatalf("switch lowering produced %d instructions, want 4", count)
	}
}

func TestKindString(t *testing.T) {
	if End.String() != "end" || Switch.String() != "switch" || Method.String() != "method" {
		t.Fatalf("kind strings wrong")
	}
	if Kind(99).String() == "end" {
		t.Fatalf("unknown kind collides")
	}
}
