// Package syntax defines the abstract syntax of Featherweight X10
// (FX10) exactly as in Figure 1 of Lee and Palsberg (PPoPP 2010):
//
//	Program:     p ::= void f_i() { s_i },  i ∈ 1..u
//	Statement:   s ::= i | i s
//	Instruction: i ::= skip^l | a[d] =^l e; | while^l (a[d] != 0) s
//	               | async^l s | finish^l s | f_i()^l
//	Expression:  e ::= c | a[d] + 1
//
// A program owns a dense label table: every instruction carries a
// Label, an index into Program.Labels. Statement labels drive the
// may-happen-in-parallel analysis; they have no effect on execution.
//
// The package also provides the sequencing operator s1 . s2 used by
// the operational semantics of while loops and method calls (Seq), a
// builder for programmatic construction, a validator, and a
// pretty-printer whose output re-parses with internal/parser.
package syntax

import (
	"fmt"
	"sync"
)

// Label identifies an instruction within a Program. Labels are dense:
// valid labels of a program p are 0 … p.NumLabels()-1.
type Label int

// NoLabel is the sentinel for "no label assigned yet".
const NoLabel Label = -1

// Kind enumerates the instruction forms of FX10.
type Kind int

// The instruction kinds, in the order of Figure 1. KindNext is the
// clock extension (Section 8 future work); core FX10 programs never
// contain it.
const (
	KindSkip Kind = iota
	KindAssign
	KindWhile
	KindAsync
	KindFinish
	KindCall
	KindNext
)

var kindNames = [...]string{"skip", "assign", "while", "async", "finish", "call", "next"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Expr is an FX10 expression: either Const (an integer constant c) or
// Plus (an array lookup plus one, a[d]+1).
type Expr interface {
	isExpr()
	String() string
}

// Const is the integer constant expression c.
type Const struct {
	C int64
}

func (Const) isExpr()          {}
func (e Const) String() string { return fmt.Sprintf("%d", e.C) }

// Plus is the expression a[d] + 1.
type Plus struct {
	D int // array index d
}

func (Plus) isExpr()          {}
func (e Plus) String() string { return fmt.Sprintf("a[%d] + 1", e.D) }

// Instr is one labeled FX10 instruction.
type Instr interface {
	// Label returns the instruction's label.
	Label() Label
	// Kind returns the instruction's syntactic form.
	Kind() Kind
	isInstr()
}

// Skip is skip^l.
type Skip struct {
	L Label
}

// Assign is a[d] =^l e;.
type Assign struct {
	L   Label
	D   int // destination index d
	Rhs Expr
}

// While is while^l (a[d] != 0) s.
type While struct {
	L    Label
	D    int   // guard index d
	Body *Stmt // loop body s (non-empty)
}

// Async is async^l s. Place is the Section 8 places extension: the
// place the body runs at, relative to the spawning activity's place
// (0 = same place). Clocked marks the Section 8 clocks extension: a
// clocked async's activity is registered on the program's single
// implicit clock and participates in next barriers. Core FX10
// programs always use Place 0 and Clocked false.
type Async struct {
	L       Label
	Body    *Stmt // async body s (non-empty)
	Place   int
	Clocked bool
}

// Finish is finish^l s.
type Finish struct {
	L    Label
	Body *Stmt // finish body s (non-empty)
}

// Call is f_i()^l. Name is the callee's source name; Method is its
// index in Program.Methods, resolved by Builder.Program or the parser.
type Call struct {
	L      Label
	Name   string
	Method int
}

// Next is next^l, the clock-barrier instruction of the Section 8
// clocks extension: the executing activity waits until every live
// activity registered on the implicit clock has reached a next (or
// terminated). The core pipeline treats it by clock erasure (as a
// skip), which is sound for may-happen-in-parallel information;
// internal/clocks gives it the real barrier semantics.
type Next struct {
	L Label
}

func (i *Skip) Label() Label   { return i.L }
func (i *Assign) Label() Label { return i.L }
func (i *While) Label() Label  { return i.L }
func (i *Async) Label() Label  { return i.L }
func (i *Finish) Label() Label { return i.L }
func (i *Call) Label() Label   { return i.L }
func (i *Next) Label() Label   { return i.L }

func (i *Skip) Kind() Kind   { return KindSkip }
func (i *Assign) Kind() Kind { return KindAssign }
func (i *While) Kind() Kind  { return KindWhile }
func (i *Async) Kind() Kind  { return KindAsync }
func (i *Finish) Kind() Kind { return KindFinish }
func (i *Call) Kind() Kind   { return KindCall }
func (i *Next) Kind() Kind   { return KindNext }

func (*Skip) isInstr()   {}
func (*Assign) isInstr() {}
func (*While) isInstr()  {}
func (*Async) isInstr()  {}
func (*Finish) isInstr() {}
func (*Call) isInstr()   {}
func (*Next) isInstr()   {}

// Body returns the nested statement of a while/async/finish
// instruction, or nil for the other kinds.
func Body(i Instr) *Stmt {
	switch i := i.(type) {
	case *While:
		return i.Body
	case *Async:
		return i.Body
	case *Finish:
		return i.Body
	}
	return nil
}

// Stmt is a non-empty sequence of instructions, s ::= i | i s,
// represented as a singly linked list. Next is nil exactly when this
// is the final instruction of the sequence.
//
// Stmt spines may be shared and must be treated as immutable after
// construction; Seq copies spines rather than splicing them.
type Stmt struct {
	Instr Instr
	Next  *Stmt
}

// Seq implements the paper's sequencing operator s1 . s2:
//
//	skip^l . s2     ≡ skip^l s2
//	(i s1) . s2     ≡ i (s1 . s2)
//
// More generally for our list representation, it appends s2 after the
// last instruction of s1, copying s1's spine so that neither input is
// mutated. Instructions (and hence labels) are shared, which is what
// the semantics requires: the unrolled loop body retains its labels.
func Seq(s1, s2 *Stmt) *Stmt {
	if s1 == nil {
		return s2
	}
	if s2 == nil {
		return s1
	}
	head := &Stmt{Instr: s1.Instr}
	tail := head
	for cur := s1.Next; cur != nil; cur = cur.Next {
		n := &Stmt{Instr: cur.Instr}
		tail.Next = n
		tail = n
	}
	tail.Next = s2
	return head
}

// Len returns the number of instructions in the top-level sequence
// (not counting nested bodies).
func (s *Stmt) Len() int {
	n := 0
	for cur := s; cur != nil; cur = cur.Next {
		n++
	}
	return n
}

// Each calls f for every instruction in the top-level sequence.
func (s *Stmt) Each(f func(Instr)) {
	for cur := s; cur != nil; cur = cur.Next {
		f(cur.Instr)
	}
}

// EachDeep calls f for every instruction in the sequence and,
// recursively, in all nested while/async/finish bodies, in source
// order.
func (s *Stmt) EachDeep(f func(Instr)) {
	for cur := s; cur != nil; cur = cur.Next {
		f(cur.Instr)
		if b := Body(cur.Instr); b != nil {
			b.EachDeep(f)
		}
	}
}

// Method is one FX10 method: void Name() { Body }.
type Method struct {
	Name string
	Body *Stmt
}

// LabelInfo is the program's metadata for one label.
type LabelInfo struct {
	Name   string // display name, e.g. "S1" or auto-generated "L7"
	Kind   Kind   // the labeled instruction's form
	Method int    // index of the enclosing method, -1 until finalized
	Instr  Instr  // the labeled instruction
	// AsyncBody is the label of the innermost enclosing async
	// instruction if this instruction is (transitively) inside an
	// async body within the same method, else NoLabel. Used to
	// classify pairs of async bodies (Figure 8).
	AsyncBody Label
}

// Program is a complete FX10 program.
type Program struct {
	// Methods holds the program's methods. The entry point f_0 is the
	// method named "main"; its index is MainIndex.
	Methods []*Method
	// MainIndex is the index of the main method in Methods.
	MainIndex int
	// ArrayLen is n, the length of the shared array a. Valid indices
	// d are 0 … n-1.
	ArrayLen int
	// Labels is the dense label table; Labels[l] describes label l.
	Labels []LabelInfo

	byName map[string]int

	// hashes memoizes the program and per-method content hashes (see
	// hash.go). Programs are immutable once validated, so the lazy
	// computation is safe under concurrent readers.
	hashes hashMemo

	// labelIndex memoizes LabelByName's name → label table the same
	// way.
	labelOnce  sync.Once
	labelIndex map[string]Label
}

// NumLabels returns the number of labels in the program.
func (p *Program) NumLabels() int { return len(p.Labels) }

// Main returns the main method (the paper's f_0).
func (p *Program) Main() *Method { return p.Methods[p.MainIndex] }

// MethodIndex returns the index of the named method and whether it
// exists.
func (p *Program) MethodIndex(name string) (int, bool) {
	i, ok := p.byName[name]
	return i, ok
}

// LabelName returns the display name for label l.
func (p *Program) LabelName(l Label) string {
	if l < 0 || int(l) >= len(p.Labels) {
		return fmt.Sprintf("L?%d", int(l))
	}
	return p.Labels[l].Name
}

// LabelByName returns the label with the given display name, if any
// (the first such label; Validate rejects duplicate names). The name
// table is built on first use.
func (p *Program) LabelByName(name string) (Label, bool) {
	p.labelOnce.Do(func() {
		p.labelIndex = make(map[string]Label, len(p.Labels))
		for l := len(p.Labels) - 1; l >= 0; l-- {
			p.labelIndex[p.Labels[l].Name] = Label(l)
		}
	})
	l, ok := p.labelIndex[name]
	if !ok {
		return NoLabel, false
	}
	return l, true
}

// AsyncLabels returns the labels of all async instructions, in label
// order.
func (p *Program) AsyncLabels() []Label {
	var out []Label
	for l := range p.Labels {
		if p.Labels[l].Kind == KindAsync {
			out = append(out, Label(l))
		}
	}
	return out
}

// EachInstr calls f for every instruction of every method, in method
// then source order.
func (p *Program) EachInstr(f func(methodIndex int, i Instr)) {
	for mi, m := range p.Methods {
		mi := mi
		m.Body.EachDeep(func(i Instr) { f(mi, i) })
	}
}
