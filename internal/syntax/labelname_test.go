package syntax_test

import (
	"testing"

	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// TestLabelByNameRoundTrip: on every paper program, every label's
// display name maps back to that label, and an unknown name misses.
func TestLabelByNameRoundTrip(t *testing.T) {
	for _, wl := range workloads.All() {
		p := wl.Program()
		for l := range p.Labels {
			got, ok := p.LabelByName(p.Labels[l].Name)
			if !ok || got != syntax.Label(l) {
				t.Fatalf("%s: LabelByName(%q) = %d, %v; want %d", wl.Name, p.Labels[l].Name, got, ok, l)
			}
		}
		if got, ok := p.LabelByName("no such label"); ok || got != syntax.NoLabel {
			t.Fatalf("%s: unknown name found label %d", wl.Name, got)
		}
	}
}
