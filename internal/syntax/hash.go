package syntax

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Content hashing: the incremental pipeline (internal/engine's
// AnalyzeDelta, internal/constraints' SolveDelta) needs to decide
// which methods of an edited program still mean what they meant in a
// base program. Labels cannot answer that — they are dense
// program-global indices, so inserting one instruction shifts the
// labels of every later method. Instead each method gets a content
// hash over a canonical encoding of its call-graph subtree:
//
//   - instruction structure (kinds, array indices, expressions,
//     places, clockedness) in pre-order, with labels numbered
//     method-subtree-locally in traversal order, so the hash is
//     invariant under global relabeling, label renaming, and edits to
//     unrelated methods;
//   - call sites encode the ordinal of the callee within the subtree
//     traversal (not its name), and callee bodies are encoded
//     breadth-first after the referencing body, so the hash covers
//     the full transitive callee content and recursion terminates
//     (a revisited method contributes only its ordinal).
//
// Two methods with equal hashes therefore have structurally
// isomorphic subtrees, and the context-sensitive analysis — whose
// per-method results depend only on the method's subtree — assigns
// them identical values up to renumbering the subtree's labels in
// traversal order. That is the invariant the delta solver rests on.

// ProgramHash is a content hash (sha256).
type ProgramHash = [sha256.Size]byte

// hashMemo holds the lazily computed content hashes of a Program.
// Programs are immutable once built (builder/parser construct, then
// Validate), so computing once under sync.Once is safe for the
// concurrent readers the engine cache fans out to.
type hashMemo struct {
	progOnce sync.Once
	prog     ProgramHash

	methodOnce sync.Once
	methods    []ProgramHash
}

// Hash returns the program's content hash: sha256 of the canonical
// printed form (which round-trips through the parser). It is computed
// once and memoized, so cache keying does not re-walk the AST on
// every lookup.
func (p *Program) Hash() ProgramHash {
	p.hashes.progOnce.Do(func() {
		p.hashes.prog = sha256.Sum256(appendProgram(make([]byte, 0, 32*len(p.Labels)+64), p))
	})
	return p.hashes.prog
}

// MethodHash returns the content hash of method mi's call-graph
// subtree (see the package comment above). Hashes for all methods are
// computed on first use and memoized.
func (p *Program) MethodHash(mi int) ProgramHash {
	p.computeMethodHashes()
	return p.hashes.methods[mi]
}

// MethodHashes returns the content hashes of every method, indexed
// like Methods. The returned slice is shared; do not mutate.
func (p *Program) MethodHashes() []ProgramHash {
	p.computeMethodHashes()
	return p.hashes.methods
}

func (p *Program) computeMethodHashes() {
	p.hashes.methodOnce.Do(func() {
		hs := make([]ProgramHash, len(p.Methods))
		for mi := range p.Methods {
			hs[mi] = sha256.Sum256(p.encodeSubtree(mi))
		}
		p.hashes.methods = hs
	})
}

// encodeSubtree produces the canonical encoding of method mi's
// subtree.
func (p *Program) encodeSubtree(mi int) []byte {
	ord := map[int]int{mi: 0}
	queue := []int{mi}
	var buf []byte
	for qi := 0; qi < len(queue); qi++ {
		m := p.Methods[queue[qi]]
		buf = encodeStmt(buf, m.Body, ord, &queue)
		buf = append(buf, '|')
	}
	return buf
}

func encodeStmt(buf []byte, s *Stmt, ord map[int]int, queue *[]int) []byte {
	for cur := s; cur != nil; cur = cur.Next {
		switch i := cur.Instr.(type) {
		case *Skip:
			buf = append(buf, 'K')
		case *Next:
			buf = append(buf, 'N')
		case *Assign:
			buf = append(buf, 'A')
			buf = binary.AppendUvarint(buf, uint64(i.D))
			switch e := i.Rhs.(type) {
			case Const:
				buf = append(buf, '#')
				buf = binary.AppendVarint(buf, e.C)
			case Plus:
				buf = append(buf, '+')
				buf = binary.AppendUvarint(buf, uint64(e.D))
			}
		case *While:
			buf = append(buf, 'W')
			buf = binary.AppendUvarint(buf, uint64(i.D))
			buf = append(buf, '(')
			buf = encodeStmt(buf, i.Body, ord, queue)
			buf = append(buf, ')')
		case *Async:
			buf = append(buf, 'Y')
			buf = binary.AppendVarint(buf, int64(i.Place))
			if i.Clocked {
				buf = append(buf, 'c')
			}
			buf = append(buf, '(')
			buf = encodeStmt(buf, i.Body, ord, queue)
			buf = append(buf, ')')
		case *Finish:
			buf = append(buf, 'F')
			buf = append(buf, '(')
			buf = encodeStmt(buf, i.Body, ord, queue)
			buf = append(buf, ')')
		case *Call:
			o, ok := ord[i.Method]
			if !ok {
				o = len(ord)
				ord[i.Method] = o
				*queue = append(*queue, i.Method)
			}
			buf = append(buf, 'C')
			buf = binary.AppendUvarint(buf, uint64(o))
		}
	}
	return buf
}
