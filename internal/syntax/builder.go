package syntax

import (
	"fmt"
	"slices"
	"strconv"
)

// Builder constructs Programs programmatically, allocating labels as
// instructions are created. It is used by the parser, the random
// program generator, the X10 front end's lowering, and tests.
//
// Typical use:
//
//	b := syntax.NewBuilder(8)
//	body := b.Stmts(
//		b.Finish("S1", b.Stmts(
//			b.Async("S3", b.Stmts(b.Skip(""))),
//			b.Call("", "f"),
//		)),
//		b.Skip("S2"),
//	)
//	b.AddMethod("main", body)
//	b.AddMethod("f", ...)
//	p, err := b.Program()
type Builder struct {
	arrayLen int
	labels   []LabelInfo
	methods  []*Method
	byName   map[string]int
	auto     int
}

// NewBuilder returns a builder for a program whose array has the given
// length (the paper's n > 0).
func NewBuilder(arrayLen int) *Builder {
	return &Builder{arrayLen: arrayLen, byName: map[string]int{}}
}

// GrowLabels makes room for n more labels, for a caller that can
// estimate how many instructions it will create.
func (b *Builder) GrowLabels(n int) { b.labels = slices.Grow(b.labels, n) }

// newLabel allocates a label. An empty name gets an auto-generated
// display name "L<k>".
func (b *Builder) newLabel(name string, kind Kind) Label {
	if name == "" {
		name = "L" + strconv.Itoa(b.auto)
		b.auto++
	}
	l := Label(len(b.labels))
	b.labels = append(b.labels, LabelInfo{Name: name, Kind: kind, Method: -1, AsyncBody: NoLabel})
	return l
}

func (b *Builder) setInstr(l Label, i Instr) Instr {
	b.labels[l].Instr = i
	return i
}

// Skip creates skip^l. A empty name auto-generates one.
func (b *Builder) Skip(name string) Instr {
	l := b.newLabel(name, KindSkip)
	return b.setInstr(l, &Skip{L: l})
}

// Assign creates a[d] =^l e;.
func (b *Builder) Assign(name string, d int, e Expr) Instr {
	l := b.newLabel(name, KindAssign)
	return b.setInstr(l, &Assign{L: l, D: d, Rhs: e})
}

// While creates while^l (a[d] != 0) body.
func (b *Builder) While(name string, d int, body *Stmt) Instr {
	l := b.newLabel(name, KindWhile)
	return b.setInstr(l, &While{L: l, D: d, Body: body})
}

// Async creates async^l body at the spawning place.
func (b *Builder) Async(name string, body *Stmt) Instr {
	l := b.newLabel(name, KindAsync)
	return b.setInstr(l, &Async{L: l, Body: body})
}

// AsyncAt creates async^l body at the given relative place (the
// Section 8 places extension).
func (b *Builder) AsyncAt(name string, place int, body *Stmt) Instr {
	l := b.newLabel(name, KindAsync)
	return b.setInstr(l, &Async{L: l, Body: body, Place: place})
}

// ClockedAsync creates clocked async^l body: the spawned activity is
// registered on the implicit clock (Section 8 clocks extension).
func (b *Builder) ClockedAsync(name string, body *Stmt) Instr {
	l := b.newLabel(name, KindAsync)
	return b.setInstr(l, &Async{L: l, Body: body, Clocked: true})
}

// Next creates next^l, the clock barrier (Section 8 clocks
// extension).
func (b *Builder) Next(name string) Instr {
	l := b.newLabel(name, KindNext)
	return b.setInstr(l, &Next{L: l})
}

// Finish creates finish^l body.
func (b *Builder) Finish(name string, body *Stmt) Instr {
	l := b.newLabel(name, KindFinish)
	return b.setInstr(l, &Finish{L: l, Body: body})
}

// Call creates callee()^l. The callee is resolved by name when
// Program is called, so forward and mutually recursive references are
// fine.
func (b *Builder) Call(name, callee string) Instr {
	l := b.newLabel(name, KindCall)
	return b.setInstr(l, &Call{L: l, Name: callee, Method: -1})
}

// Stmts chains instructions into a statement sequence, allocating its
// nodes together; it keeps no reference to instrs. It panics on an
// empty argument list: FX10 statements are non-empty.
func (b *Builder) Stmts(instrs ...Instr) *Stmt {
	if len(instrs) == 0 {
		panic("syntax: empty statement sequence")
	}
	nodes := make([]Stmt, len(instrs))
	for k, i := range instrs {
		nodes[k].Instr = i
		if k > 0 {
			nodes[k-1].Next = &nodes[k]
		}
	}
	return &nodes[0]
}

// AddMethod registers a method. Method bodies may reference methods
// added later.
func (b *Builder) AddMethod(name string, body *Stmt) error {
	if _, dup := b.byName[name]; dup {
		return fmt.Errorf("syntax: duplicate method %q", name)
	}
	b.byName[name] = len(b.methods)
	b.methods = append(b.methods, &Method{Name: name, Body: body})
	return nil
}

// MustAddMethod is AddMethod that panics on error, for tests and
// generators.
func (b *Builder) MustAddMethod(name string, body *Stmt) {
	if err := b.AddMethod(name, body); err != nil {
		panic(err)
	}
}

// Program finalizes the builder: it resolves call targets, assigns
// enclosing-method and enclosing-async metadata to every label, and
// validates the result. The builder must not be reused afterwards.
func (b *Builder) Program() (*Program, error) {
	p := &Program{
		Methods:   b.methods,
		MainIndex: -1,
		ArrayLen:  b.arrayLen,
		Labels:    b.labels,
		byName:    b.byName,
	}
	if i, ok := b.byName["main"]; ok {
		p.MainIndex = i
	}
	// Resolve calls and annotate labels.
	for mi, m := range p.Methods {
		if err := b.annotate(p, m.Body, mi, NoLabel); err != nil {
			return nil, fmt.Errorf("in method %q: %w", m.Name, err)
		}
	}
	if err := Validate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// MustProgram is Program that panics on error.
func (b *Builder) MustProgram() *Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}

func (b *Builder) annotate(p *Program, s *Stmt, method int, asyncBody Label) error {
	for cur := s; cur != nil; cur = cur.Next {
		l := cur.Instr.Label()
		if l < 0 || int(l) >= len(p.Labels) {
			return fmt.Errorf("instruction with foreign label %d", int(l))
		}
		info := &p.Labels[l]
		if info.Method != -1 {
			return fmt.Errorf("label %s used by more than one instruction position", info.Name)
		}
		info.Method = method
		info.AsyncBody = asyncBody
		switch i := cur.Instr.(type) {
		case *Call:
			t, ok := p.byName[i.Name]
			if !ok {
				return fmt.Errorf("call to undefined method %q", i.Name)
			}
			i.Method = t
		case *Async:
			if err := b.annotate(p, i.Body, method, l); err != nil {
				return err
			}
		case *While:
			if err := b.annotate(p, i.Body, method, asyncBody); err != nil {
				return err
			}
		case *Finish:
			if err := b.annotate(p, i.Body, method, asyncBody); err != nil {
				return err
			}
		}
	}
	return nil
}
