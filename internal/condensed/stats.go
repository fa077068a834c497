package condensed

import (
	"fmt"
	"strings"
)

// Diagnostic records one source construct a front end could not
// express in the condensed form and therefore lowered conservatively
// (to skip, or dropped entirely when it is pure bookkeeping).
type Diagnostic struct {
	Line      int    `json:"line,omitempty"` // 1-based source line, 0 if unknown
	Construct string `json:"construct"`      // e.g. "channel send", "library call"
	Detail    string `json:"detail,omitempty"`
}

func (d Diagnostic) String() string {
	s := d.Construct
	if d.Detail != "" {
		s += " " + d.Detail
	}
	if d.Line > 0 {
		s = fmt.Sprintf("line %d: %s", d.Line, s)
	}
	return s
}

// Stats describes one lowering to the condensed form: how much source
// went in, how many statements the front end saw, and which
// constructs it dropped. Coverage (1 - len(Dropped)/Stmts) is the
// front end's honesty metric: a unit lowered with coverage 1.0 is
// modeled exactly; every dropped construct widens the static answer
// but never narrows it.
type Stats struct {
	LOC     int          // non-blank source lines
	Stmts   int          // statements the front end visited
	Dropped []Diagnostic // conservatively-lowered constructs
}

// Coverage is the fraction of visited statements lowered faithfully.
func (s Stats) Coverage() float64 {
	if s.Stmts == 0 {
		return 1
	}
	return 1 - float64(len(s.Dropped))/float64(s.Stmts)
}

// CountLOC returns the number of non-blank lines of src.
func CountLOC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}
