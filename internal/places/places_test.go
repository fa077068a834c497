package places

import (
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/machine"
	"fx10/internal/parser"
	"fx10/internal/syntax"
	"fx10/internal/tree"
)

const placedSrc = `
array 4;
void remote() {
  RW: a[1] = 1;
}
void main() {
  A1: async at (1) { S1: skip; C1: remote(); }
  A2: async at (2) { S2: skip; }
  A3: async { S3: skip; }
  H:  skip;
}
`

func label(t *testing.T, p *syntax.Program, name string) syntax.Label {
	t.Helper()
	l, ok := p.LabelByName(name)
	if !ok {
		t.Fatalf("label %s missing", name)
	}
	return l
}

func TestComputePlaceSets(t *testing.T) {
	p := parser.MustParse(placedSrc)
	pi := Compute(p)
	if pi.NumPlaces != 3 {
		t.Fatalf("NumPlaces = %d, want 3", pi.NumPlaces)
	}
	cases := map[string][]int{
		"S1": {1}, "S2": {2}, "S3": {0}, "H": {0},
		"A1": {0}, "A2": {0}, "A3": {0}, // the async instructions run at the spawner's place
		"C1": {1}, "RW": {1}, // the call and the callee run at place 1
	}
	for name, want := range cases {
		l := label(t, p, name)
		got := pi.Places(l).Elems()
		if len(got) != len(want) {
			t.Fatalf("%s places = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s places = %v, want %v", name, got, want)
			}
		}
	}
}

func TestMethodCalledFromTwoPlaces(t *testing.T) {
	p := parser.MustParse(`
void shared() { W: skip; }
void main() {
  async at (1) { shared(); }
  async at (2) { shared(); }
}
`)
	pi := Compute(p)
	w := label(t, p, "W")
	got := pi.Places(w).Elems()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("W places = %v, want [1 2]", got)
	}
	mi, _ := p.MethodIndex("shared")
	if pi.MethodPlaces(mi).Len() != 2 {
		t.Fatalf("shared method places = %v", pi.MethodPlaces(mi))
	}
}

func TestNestedAsyncInheritsPlace(t *testing.T) {
	p := parser.MustParse(`
void main() {
  async at (2) {
    async { I: skip; }
  }
}
`)
	pi := Compute(p)
	i := label(t, p, "I")
	if got := pi.Places(i).Elems(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("I places = %v, want [2]", got)
	}
}

func TestRefineDropsCrossPlacePairs(t *testing.T) {
	p := parser.MustParse(placedSrc)
	in := labels.Compute(p)
	m := constraints.Generate(in, constraints.ContextSensitive).Solve(constraints.Phased).MainM()
	pi := Compute(p)
	refined := pi.Refine(m)

	s1 := label(t, p, "S1")
	s2 := label(t, p, "S2")
	s3 := label(t, p, "S3")
	h := label(t, p, "H")

	// All three async bodies may happen in parallel pairwise…
	for _, pr := range [][2]syntax.Label{{s1, s2}, {s1, s3}, {s2, s3}} {
		if !m.Has(int(pr[0]), int(pr[1])) {
			t.Fatalf("M missing (%s,%s)", p.LabelName(pr[0]), p.LabelName(pr[1]))
		}
	}
	// …but at distinct places, so the refinement drops them all.
	for _, pr := range [][2]syntax.Label{{s1, s2}, {s1, s3}, {s2, s3}} {
		if refined.Has(int(pr[0]), int(pr[1])) {
			t.Fatalf("refined M kept cross-place (%s,%s)", p.LabelName(pr[0]), p.LabelName(pr[1]))
		}
	}
	// Same-place pairs survive: S3 and H both run at place 0.
	if m.Has(int(s3), int(h)) && !refined.Has(int(s3), int(h)) {
		t.Fatalf("refined M dropped same-place (S3,H)")
	}
	// The refinement is a subset.
	if !refined.SubsetOf(m) {
		t.Fatalf("refined M not a subset")
	}
}

// Soundness of the refinement: along executions, the dynamic
// same-place parallel pairs are contained in the refined M.
func TestSameplaceParallelSoundness(t *testing.T) {
	p := parser.MustParse(placedSrc)
	in := labels.Compute(p)
	m := constraints.Generate(in, constraints.ContextSensitive).Solve(constraints.Phased).MainM()
	refined := Compute(p).Refine(m)

	for seed := int64(0); seed < 30; seed++ {
		states := machine.Trace(p, machine.Initial(p, nil), machine.NewRandom(seed), 300)
		for i, st := range states {
			sp := SameplaceParallel(p, st.T)
			if !sp.SubsetOf(refined) {
				t.Fatalf("seed %d state %d: dynamic same-place pairs %v ⊄ refined %v",
					seed, i, sp, refined)
			}
			// And the same-place pairs are a subset of all parallel
			// pairs.
			if !sp.SubsetOf(in.Parallel(st.T)) {
				t.Fatalf("seed %d state %d: same-place pairs not ⊆ parallel", seed, i)
			}
		}
	}
}

// With no place annotations, Refine is the identity on M restricted
// to reachable labels (every label runs at place 0).
func TestRefineIdentityWithoutPlaces(t *testing.T) {
	p := parser.MustParse(`
void main() {
  async { S1: skip; }
  S2: skip;
}
`)
	in := labels.Compute(p)
	m := constraints.Generate(in, constraints.ContextSensitive).Solve(constraints.Phased).MainM()
	pi := Compute(p)
	if pi.NumPlaces != 1 {
		t.Fatalf("NumPlaces = %d", pi.NumPlaces)
	}
	if !pi.Refine(m).Equal(m) {
		t.Fatalf("refinement changed M without places")
	}
}

// SameplaceParallel on a hand-built tree: two leaves under ∥ at the
// same place pair; at different places they do not; the right side of
// ▷ never pairs.
func TestSameplaceParallelTree(t *testing.T) {
	p := parser.MustParse(`void main() { X: skip; Y: skip; }`)
	x := p.Main().Body
	y := p.Main().Body.Next
	mk := func(px, py int) tree.Tree {
		return &tree.Par{L: &tree.Leaf{S: x, Place: px}, R: &tree.Leaf{S: y, Place: py}}
	}
	if same := SameplaceParallel(p, mk(1, 1)); same.Len() != 2 {
		t.Fatalf("same-place pair missing: %v", same)
	}
	if diff := SameplaceParallel(p, mk(1, 2)); !diff.Empty() {
		t.Fatalf("cross-place pair reported: %v", diff)
	}
	fin := &tree.Fin{L: &tree.Leaf{S: x, Place: 1}, R: &tree.Leaf{S: y, Place: 1}}
	if got := SameplaceParallel(p, fin); !got.Empty() {
		t.Fatalf("▷ right side paired: %v", got)
	}
}
