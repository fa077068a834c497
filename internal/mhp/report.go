package mhp

import (
	"encoding/hex"
	"io"
	"sort"

	"fx10/internal/syntax"
)

// Report is the machine-readable form of an analysis Result, with
// labels rendered as their display names. It is what
// `fx10 mhp -json` emits and what the analysis service
// (internal/server) returns from /v1/analyze, so downstream tools
// (editors, race triage dashboards) can consume either transport.
//
// The encoding is deterministic: label pairs are sorted by label
// index (A ≤ B within a pair), method summaries follow program
// declaration order, and race candidates are sorted by (L1, L2,
// index). Byte-for-byte stability across runs and solver strategies
// is a contract — golden-file tests and the server's response cache
// both rely on it.
type Report struct {
	ProgramHash string       `json:"programHash"`
	Mode        string       `json:"mode"`
	Methods     int          `json:"methods"`
	Labels      int          `json:"labels"`
	Constraints Constraints  `json:"constraints"`
	Iterations  Iterations   `json:"iterations"`
	Pairs       []LabelPair  `json:"mhpPairs"`
	AsyncPairs  []AsyncPairJ `json:"asyncBodyPairs"`
	PairCounts  PairCounts   `json:"asyncBodyPairCounts"`
	Races       []RaceJ      `json:"raceCandidates"`
	Summaries   []SummaryJ   `json:"methodSummaries"`
	// Clocks is present iff the program uses the Section 8 clock
	// extension (a next/advance or a clocked async): the inferred
	// per-label phases and how many pairs the barrier pruned. Absent
	// for clock-free programs, whose report bytes are unchanged.
	Clocks *ClocksJ `json:"clocks,omitempty"`
}

// ClocksJ reports the static clock-phase analysis: every label's
// abstract phase and the count of unordered label pairs the
// phase-aware solvers pruned from the MHP relation (pairs a
// clock-blind analysis would report).
type ClocksJ struct {
	Phases      []LabelPhaseJ `json:"labelPhases"`
	PrunedPairs int           `json:"prunedPairs"`
}

// LabelPhaseJ is one label's inferred clock phase: a concrete phase
// number, or -1 when the phase is statically unknown (⊤).
type LabelPhaseJ struct {
	Label string `json:"label"`
	Phase int    `json:"phase"`
}

// Constraints reports the Figure 6 constraint counts.
type Constraints struct {
	Slabels int `json:"slabels"`
	Level1  int `json:"level1"`
	Level2  int `json:"level2"`
}

// Iterations reports the solver pass counts.
type Iterations struct {
	Slabels int `json:"slabels"`
	Level1  int `json:"level1"`
	Level2  int `json:"level2"`
}

// LabelPair is one unordered MHP pair (A ≤ B in label order).
type LabelPair struct {
	A string `json:"a"`
	B string `json:"b"`
}

// AsyncPairJ is one async-body pair with its Figure 8 category.
type AsyncPairJ struct {
	A        string `json:"a"`
	B        string `json:"b"`
	Category string `json:"category"`
}

// RaceJ is one race candidate.
type RaceJ struct {
	A          string `json:"a"`
	B          string `json:"b"`
	Index      int    `json:"index"`
	WriteWrite bool   `json:"writeWrite"`
}

// SummaryJ is one method summary (M size and the O label set).
type SummaryJ struct {
	Method   string   `json:"method"`
	MPairs   int      `json:"mPairs"`
	Outlives []string `json:"outlives"`
}

// Report builds the serializable report.
func (r *Result) Report() Report {
	p := r.Program
	name := func(l syntax.Label) string { return p.LabelName(l) }

	hash := p.Hash()
	rep := Report{
		ProgramHash: hex.EncodeToString(hash[:]),
		Mode:        r.Sys.Mode.String(),
		Methods:     len(p.Methods),
		Labels:      p.NumLabels(),
		Iterations: Iterations{
			Slabels: r.Sol.IterSlabels,
			Level1:  r.Sol.IterL1,
			Level2:  r.Sol.IterL2,
		},
	}
	rep.Constraints.Slabels, rep.Constraints.Level1, rep.Constraints.Level2 = r.Sys.Counts()

	// Collect, then sort by label index: Each already iterates rows
	// ascending, but the sort makes byte-stability independent of the
	// pair-set representation.
	var raw [][2]int
	r.M.Each(func(i, j int) {
		if i <= j {
			raw = append(raw, [2]int{i, j})
		}
	})
	sort.Slice(raw, func(a, b int) bool {
		if raw[a][0] != raw[b][0] {
			return raw[a][0] < raw[b][0]
		}
		return raw[a][1] < raw[b][1]
	})
	for _, pr := range raw {
		rep.Pairs = append(rep.Pairs, LabelPair{A: name(syntax.Label(pr[0])), B: name(syntax.Label(pr[1]))})
	}

	asyncPairs := r.AsyncBodyPairs()
	rep.PairCounts = CountPairs(asyncPairs)
	for _, ap := range asyncPairs {
		rep.AsyncPairs = append(rep.AsyncPairs, AsyncPairJ{
			A: name(ap.A), B: name(ap.B), Category: ap.Category.String(),
		})
	}

	for _, rc := range r.RaceCandidates() {
		rep.Races = append(rep.Races, RaceJ{
			A: name(rc.L1), B: name(rc.L2), Index: rc.Index, WriteWrite: rc.WriteWrite,
		})
	}

	if codes := r.Sys.PhaseCode; codes != nil {
		cl := &ClocksJ{}
		for l, c := range codes {
			cl.Phases = append(cl.Phases, LabelPhaseJ{Label: name(syntax.Label(l)), Phase: int(c)})
		}
		r.Sol.ClockPrunedMainPairs().Each(func(i, j int) {
			if i <= j {
				cl.PrunedPairs++
			}
		})
		rep.Clocks = cl
	}

	// Summaries read the sparse solution directly: a method's pair bag
	// has exactly the dense M's Len, so no summary is densified.
	for mi, m := range p.Methods {
		s := SummaryJ{Method: m.Name, MPairs: r.Sol.PairLen(r.Sys.MethodM[mi])}
		r.Sol.SetValue(r.Sys.MethodO[mi]).Each(func(e int) {
			s.Outlives = append(s.Outlives, name(syntax.Label(e)))
		})
		rep.Summaries = append(rep.Summaries, s)
	}
	return rep
}

// WriteJSON writes the report as indented JSON, as a json.Encoder
// indenting by two spaces writes it.
func (r *Result) WriteJSON(w io.Writer) error {
	_, err := w.Write(append(r.ReportJSON(""), '\n'))
	return err
}
