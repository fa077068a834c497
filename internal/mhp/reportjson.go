package mhp

import (
	"encoding/hex"
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"

	"fx10/internal/syntax"
)

// ReportJSON returns the report exactly as
// json.MarshalIndent(r.Report(), prefix, "  ") renders it, without
// building the Report. It walks main's solved pair run once, never the
// dense M, to collect the pair list's size, the async-body pairs and
// the race candidates, renders each label's name once, and then writes
// in two passes over what it collected: the first only counts bytes,
// so the second writes into a buffer allocated at its final size. The
// slice's capacity equals its length: the daemon's program cache keeps
// it and charges the entry its capacity.
func (r *Result) ReportJSON(prefix string) []byte {
	var w reportWriter
	w.collect(r, prefix)
	w.sizing = true
	w.write()
	w.buf = make([]byte, 0, w.n)
	w.sizing = false
	w.write()
	return w.buf
}

// reportWriter holds what one ReportJSON call collected, and the
// output: in the sizing pass every write only adds to n.
type reportWriter struct {
	r      *Result
	prefix string
	// pad is a newline, the prefix and enough indents for the deepest
	// line; line(d) writes the first 1+len(prefix)+2d bytes of it.
	pad string
	// names holds every label's name as a JSON string, back to back:
	// label l's is names[at[l]:at[l+1]].
	names []byte
	at    []int32
	// hash, mode and methods are the other strings, already quoted.
	hash, mode string
	methods    []string

	// nPairs counts main's pairs (i, j) with i ≤ j, the pair list, and
	// pairNames the bytes of their names.
	nPairs, pairNames int
	// pairText is a pair entry's fixed text: before a, between a and b,
	// and after b.
	pairText [3]string
	async    []AsyncPair
	races    []RaceCandidate
	// outlives[mi] is method mi's O, and pruned the clocks section's
	// pruned pair count.
	outlives [][]int
	pruned   int

	sizing bool
	n      int
	buf    []byte
}

// collect gathers what the report needs before it is written.
func (w *reportWriter) collect(r *Result, prefix string) {
	p := r.Program
	w.r, w.prefix, w.pad = r, prefix, "\n"+prefix+"        "
	w.pairText = [3]string{
		w.pad[:len(w.pad)-4] + "{" + w.pad[:len(w.pad)-2] + `"a": `,
		"," + w.pad[:len(w.pad)-2] + `"b": `,
		w.pad[:len(w.pad)-4] + "}",
	}

	size := 0
	for l := range p.Labels {
		size += len(p.Labels[l].Name) + 2
	}
	w.names = make([]byte, 0, size)
	w.at = make([]int32, p.NumLabels()+1)
	for l := range p.Labels {
		w.names = appendQuoted(w.names, p.Labels[l].Name)
		w.at[l+1] = int32(len(w.names))
	}
	hash := p.Hash()
	w.hash = `"` + hex.EncodeToString(hash[:]) + `"`
	w.mode = string(appendQuoted(nil, r.Sys.Mode.String()))
	for _, m := range p.Methods {
		w.methods = append(w.methods, string(appendQuoted(nil, m.Name)))
	}

	async, races := newAsyncClassifier(p), newRaceClassifier(p)
	r.Sol.EachMainPair(func(i, j int) {
		async.add(i, j)
		races.add(i, j)
		if i <= j {
			w.nPairs++
			w.pairNames += int(w.at[i+1] - w.at[i] + w.at[j+1] - w.at[j])
		}
	})
	w.async, w.races = async.pairs(), races.candidates()
	for mi := range p.Methods {
		w.outlives = append(w.outlives, r.Sol.SetValue(r.Sys.MethodO[mi]).Elems())
	}
	if r.Sys.PhaseCode != nil {
		r.Sol.ClockPrunedMainPairs().Each(func(i, j int) {
			if i <= j {
				w.pruned++
			}
		})
	}
}

// appendQuoted appends s as encoding/json writes a string. Names are
// almost always plain ASCII, which needs only the quotes; anything
// else (a control, HTML-sensitive or non-ASCII character) is left to
// encoding/json itself.
func appendQuoted(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plain marks the bytes encoding/json copies into a string as they
// are: printable ASCII but for '"', '\\' and the HTML-sensitive '<',
// '>' and '&'.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

func (w *reportWriter) raw(s string) {
	if w.sizing {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

func (w *reportWriter) num(v int) {
	if w.sizing {
		var digits [20]byte
		w.n += len(strconv.AppendInt(digits[:0], int64(v), 10))
		return
	}
	w.buf = strconv.AppendInt(w.buf, int64(v), 10)
}

func (w *reportWriter) name(l syntax.Label) {
	if q := w.names[w.at[l]:w.at[l+1]]; w.sizing {
		w.n += len(q)
	} else {
		w.buf = append(w.buf, q...)
	}
}

// line starts a line at depth d: a newline, the prefix, d indents.
func (w *reportWriter) line(d int) { w.raw(w.pad[:1+len(w.prefix)+2*d]) }

// member starts an object's member after its first: a comma, then the
// member's line at depth d and its key.
func (w *reportWriter) member(d int, key string) {
	w.raw(",")
	w.line(d)
	w.raw(key)
}

// list writes an array whose elements sit at depth d+1, elem writing
// element k from its first byte; a report's slices are nil when
// empty, so n == 0 is null.
func (w *reportWriter) list(d, n int, elem func(k int)) {
	if n == 0 {
		w.raw("null")
		return
	}
	w.raw("[")
	for k := 0; k < n; k++ {
		if k > 0 {
			w.raw(",")
		}
		w.line(d + 1)
		elem(k)
	}
	w.line(d)
	w.raw("]")
}

// ints writes an object at depth d whose members are all integers.
func (w *reportWriter) ints(d int, keys [4]string, vals ...int) {
	w.raw("{")
	for k, v := range vals {
		if k > 0 {
			w.raw(",")
		}
		w.line(d + 1)
		w.raw(keys[k])
		w.num(v)
	}
	w.line(d)
	w.raw("}")
}

var (
	levelKeys = [4]string{`"slabels": `, `"level1": `, `"level2": `}
	countKeys = [4]string{`"Total": `, `"Self": `, `"Same": `, `"Diff": `}
)

// pairList writes main's pairs (i, j) with i ≤ j, in walk order, as
// the list of mhpPairs; the sizing pass adds up their length from the
// counts the walk collected.
func (w *reportWriter) pairList() {
	if w.nPairs == 0 {
		w.raw("null")
		return
	}
	w.raw("[")
	t := &w.pairText
	if w.sizing {
		w.n += w.nPairs*(len(t[0])+len(t[1])+len(t[2])) + w.nPairs - 1 + w.pairNames
	} else {
		sep := ""
		w.r.Sol.EachMainPair(func(i, j int) {
			if i > j {
				return
			}
			w.raw(sep)
			sep = ","
			w.raw(t[0])
			w.name(syntax.Label(i))
			w.raw(t[1])
			w.name(syntax.Label(j))
			w.raw(t[2])
		})
	}
	w.line(1)
	w.raw("]")
}

// write writes the report, member by member in Report's field order.
func (w *reportWriter) write() {
	r, p := w.r, w.r.Program
	w.raw("{")
	w.line(1)
	w.raw(`"programHash": `)
	w.raw(w.hash)
	w.member(1, `"mode": `)
	w.raw(w.mode)
	w.member(1, `"methods": `)
	w.num(len(p.Methods))
	w.member(1, `"labels": `)
	w.num(p.NumLabels())
	w.member(1, `"constraints": `)
	slabels, l1, l2 := r.Sys.Counts()
	w.ints(1, levelKeys, slabels, l1, l2)
	w.member(1, `"iterations": `)
	w.ints(1, levelKeys, r.Sol.IterSlabels, r.Sol.IterL1, r.Sol.IterL2)

	w.member(1, `"mhpPairs": `)
	w.pairList()

	w.member(1, `"asyncBodyPairs": `)
	w.list(1, len(w.async), func(k int) {
		ap := w.async[k]
		w.raw("{")
		w.line(3)
		w.raw(`"a": `)
		w.name(ap.A)
		w.member(3, `"b": `)
		w.name(ap.B)
		w.member(3, `"category": "`)
		w.raw(ap.Category.String())
		w.raw(`"`)
		w.line(2)
		w.raw("}")
	})
	w.member(1, `"asyncBodyPairCounts": `)
	c := CountPairs(w.async)
	w.ints(1, countKeys, c.Total, c.Self, c.Same, c.Diff)

	w.member(1, `"raceCandidates": `)
	w.list(1, len(w.races), func(k int) {
		rc := w.races[k]
		w.raw("{")
		w.line(3)
		w.raw(`"a": `)
		w.name(rc.L1)
		w.member(3, `"b": `)
		w.name(rc.L2)
		w.member(3, `"index": `)
		w.num(rc.Index)
		w.member(3, `"writeWrite": `)
		w.raw(strconv.FormatBool(rc.WriteWrite))
		w.line(2)
		w.raw("}")
	})

	w.member(1, `"methodSummaries": `)
	w.list(1, len(p.Methods), func(mi int) {
		w.raw("{")
		w.line(3)
		w.raw(`"method": `)
		w.raw(w.methods[mi])
		w.member(3, `"mPairs": `)
		w.num(r.Sol.PairLen(r.Sys.MethodM[mi]))
		w.member(3, `"outlives": `)
		o := w.outlives[mi]
		w.list(3, len(o), func(k int) { w.name(syntax.Label(o[k])) })
		w.line(2)
		w.raw("}")
	})

	if codes := r.Sys.PhaseCode; codes != nil {
		w.member(1, `"clocks": {`)
		w.line(2)
		w.raw(`"labelPhases": `)
		w.list(2, len(codes), func(l int) {
			w.raw("{")
			w.line(4)
			w.raw(`"label": `)
			w.name(syntax.Label(l))
			w.member(4, `"phase": `)
			w.num(int(codes[l]))
			w.line(3)
			w.raw("}")
		})
		w.member(2, `"prunedPairs": `)
		w.num(w.pruned)
		w.line(1)
		w.raw("}")
	}
	w.line(0)
	w.raw("}")
}
