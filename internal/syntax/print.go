package syntax

import (
	"fmt"
	"strconv"
)

// Print renders the program in the concrete syntax accepted by
// internal/parser, with every label written explicitly so the result
// round-trips (modulo auto-generated label names, which are preserved
// verbatim).
func Print(p *Program) string { return string(appendProgram(nil, p)) }

// appendProgram appends Print's text to b. Program.Hash sums these
// bytes, so it neither formats through fmt nor copies a string.
func appendProgram(b []byte, p *Program) []byte {
	b = strconv.AppendInt(append(b, "array "...), int64(p.ArrayLen), 10)
	b = append(b, ";\n\n"...)
	for mi, m := range p.Methods {
		if mi > 0 {
			b = append(b, '\n')
		}
		b = appendStmt(cat(b, "void ", m.Name, "() {\n"), p, m.Body, 1)
		b = append(b, "}\n"...)
	}
	return b
}

// PrintStmt renders one statement in concrete syntax at the given
// indent depth. Useful for diagnostics and tree display.
func PrintStmt(p *Program, s *Stmt) string {
	return string(appendStmt(nil, p, s, 0))
}

func appendStmt(b []byte, p *Program, s *Stmt, depth int) []byte {
	for cur := s; cur != nil; cur = cur.Next {
		b = appendInstr(b, p, cur.Instr, depth)
	}
	return b
}

// cat appends strings to b.
func cat(b []byte, parts ...string) []byte {
	for _, s := range parts {
		b = append(b, s...)
	}
	return b
}

func appendIndent(b []byte, depth int) []byte {
	for ; depth > 0; depth-- {
		b = append(b, "  "...)
	}
	return b
}

// appendIndex appends the array access a[d].
func appendIndex(b []byte, d int) []byte {
	return append(strconv.AppendInt(append(b, "a["...), int64(d), 10), ']')
}

// appendBody appends " {", the nested statement and the closing brace.
func appendBody(b []byte, p *Program, body *Stmt, depth int) []byte {
	b = appendStmt(append(b, " {\n"...), p, body, depth+1)
	return append(appendIndent(b, depth), "}\n"...)
}

func appendInstr(b []byte, p *Program, i Instr, depth int) []byte {
	b = cat(appendIndent(b, depth), p.LabelName(i.Label()), ": ")
	switch i := i.(type) {
	case *Skip:
		return append(b, "skip;\n"...)
	case *Assign:
		b = append(appendIndex(b, i.D), " = "...)
		switch e := i.Rhs.(type) {
		case Const:
			b = strconv.AppendInt(b, e.C, 10)
		case Plus:
			b = append(appendIndex(b, e.D), " + 1"...)
		default:
			b = fmt.Appendf(b, "%s", e)
		}
		return append(b, ";\n"...)
	case *While:
		b = append(appendIndex(append(b, "while ("...), i.D), " != 0)"...)
		return appendBody(b, p, i.Body, depth)
	case *Async:
		if i.Clocked {
			b = append(b, "clocked "...)
		}
		b = append(b, "async"...)
		if i.Place != 0 {
			b = append(strconv.AppendInt(append(b, " at ("...), int64(i.Place), 10), ')')
		}
		return appendBody(b, p, i.Body, depth)
	case *Finish:
		return appendBody(append(b, "finish"...), p, i.Body, depth)
	case *Call:
		return cat(b, i.Name, "();\n")
	case *Next:
		return append(b, "next;\n"...)
	}
	return append(b, "???;\n"...)
}

// InstrString renders a single instruction on one line (bodies
// elided), for diagnostics.
func InstrString(p *Program, i Instr) string {
	lbl := p.LabelName(i.Label())
	switch i := i.(type) {
	case *Skip:
		return fmt.Sprintf("%s: skip", lbl)
	case *Assign:
		return fmt.Sprintf("%s: a[%d] = %s", lbl, i.D, i.Rhs)
	case *While:
		return fmt.Sprintf("%s: while (a[%d] != 0) {…}", lbl, i.D)
	case *Async:
		return fmt.Sprintf("%s: async {…}", lbl)
	case *Finish:
		return fmt.Sprintf("%s: finish {…}", lbl)
	case *Call:
		return fmt.Sprintf("%s: %s()", lbl, i.Name)
	case *Next:
		return fmt.Sprintf("%s: next", lbl)
	}
	return lbl + ": ???"
}
