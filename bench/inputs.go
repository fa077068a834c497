package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"fx10/internal/condensed"
	"fx10/internal/engine"
	"fx10/internal/frontend"
	"fx10/internal/gofront"
	"fx10/internal/intset"
	"fx10/internal/mhp"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// program is one input of the warmed corpus, with everything a client
// needs to send it and check the answer without asking the server.
type program struct {
	name   string
	lang   string // "" is core FX10; otherwise a front-end name ("go")
	source string
	prog   *syntax.Program // the program the server builds from source
	hash   string          // hex program hash, as /v1/query takes it
	digest [32]byte        // expected report digest
	m      *intset.PairSet // reference MHP pairs, for queries
}

// inputs is everything a run sends, generated before anything is
// timed. The programs are the same for every seed, so runs with
// different seeds measure the same corpus; the seed orders the
// requests and picks their labels and edits.
type inputs struct {
	paper  []*program // the paper's programs (all 13 unless scaled down)
	goCorp []*program // restricted-Go programs of the warmed corpus
	corpus []*program // paper ++ goCorp: what every set-up analyzes
	goPool []string   // Go sources cold-corpus makes unique per request
	huge   []string   // huge-tier FX10 sources

	// ref is the reference engine: the phased solver with both cache
	// tiers off, so every expected report is computed from scratch.
	ref *engine.Engine
}

//go:embed testdata/golden.json
var goldenJSON []byte

// golden maps each paper program to the SHA-256 of its cs-mode report.
func golden() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func generate(cfg config) (*inputs, error) {
	in := &inputs{ref: engine.MustNew(engine.Config{Strategy: "phased", CacheSize: -1})}
	gold, err := golden()
	if err != nil {
		return nil, err
	}
	for _, b := range workloads.All() {
		if len(cfg.paper) > 0 && !slices.Contains(cfg.paper, b.Name) {
			continue
		}
		p, err := in.expect(b.Name, syntax.Print(b.Program()), "")
		if err != nil {
			return nil, err
		}
		if want := gold[b.Name]; hex.EncodeToString(p.digest[:]) != want {
			return nil, fmt.Errorf("golden: %s report digest %x, want %s", b.Name, p.digest, want)
		}
		in.paper = append(in.paper, p)
	}
	for i := 0; i < cfg.goCorpus; i++ {
		src, err := goSource(int64(i))
		if err != nil {
			return nil, err
		}
		p, err := in.expect(fmt.Sprintf("go%d", i), src, "go")
		if err != nil {
			return nil, err
		}
		in.goCorp = append(in.goCorp, p)
	}
	in.corpus = append(append([]*program(nil), in.paper...), in.goCorp...)
	for i := 0; i < cfg.goPool; i++ {
		src, err := goSource(1<<20 + int64(i))
		if err != nil {
			return nil, err
		}
		in.goPool = append(in.goPool, src)
	}
	for i := 0; i < cfg.hugePool; i++ {
		in.huge = append(in.huge, syntax.Print(progen.GenerateHuge(int64(i), progen.Huge(cfg.hugeLabels))))
	}
	return in, nil
}

// goSource renders a generated clock-free program as restricted Go.
func goSource(seed int64) (string, error) {
	u, err := condensed.FromProgram(progen.Generate(seed, progen.Finite()))
	if err != nil {
		return "", fmt.Errorf("go input %d: %w", seed, err)
	}
	src, err := gofront.Render(u)
	if err != nil {
		return "", fmt.Errorf("go input %d: %w", seed, err)
	}
	return src, nil
}

// expect builds a program exactly as the server does and analyzes it
// on the reference engine.
func (in *inputs) expect(name, source, lang string) (*program, error) {
	p, _, err := lower(source, lang)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res, err := in.ref.Analyze(engine.Job{Name: name, Program: p})
	if err != nil {
		return nil, err
	}
	h := p.Hash()
	return &program{
		name: name, lang: lang, source: source, prog: p,
		hash: hex.EncodeToString(h[:]), digest: reportDigest(res), m: res.M,
	}, nil
}

// lower mirrors the server's source routing: core FX10 goes to the
// parser, anything else through its front end and the condensed form.
func lower(source, lang string) (*syntax.Program, frontend.Stats, error) {
	if lang == "" {
		p, err := parser.Parse(source)
		return p, frontend.Stats{}, err
	}
	f, err := frontend.Lookup(lang)
	if err != nil {
		return nil, frontend.Stats{}, err
	}
	u, st, err := f.Lower(source)
	if err != nil {
		return nil, st, err
	}
	p, err := condensed.Lower(u)
	return p, st, err
}

// digest hashes a report's JSON, in any formatting, without its
// "iterations" object: the solver's pass counts describe how a
// strategy iterated, not what it found, so they differ between a delta
// and a solve from scratch and between strategies. Every other field
// must match byte for byte.
func digest(report []byte) ([32]byte, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(report, &fields); err != nil {
		return [32]byte{}, err
	}
	delete(fields, "iterations")
	buf, err := json.Marshal(fields) // sorted keys, compacted values
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf), nil
}

// reportDigest is the digest of a result's report.
func reportDigest(res *engine.Result) [32]byte {
	buf, err := json.Marshal(mhp.FromEngine(res).Report())
	if err != nil {
		panic(err) // a Report is plain data; Marshal cannot fail on it
	}
	d, err := digest(buf)
	if err != nil {
		panic(err) // Marshal's output is valid JSON
	}
	return d
}

// withUniq appends an unreachable one-statement method numbered n, so
// the program is one the server has never seen (n = 0 leaves it as is).
func withUniq(source, lang string, n int64) string {
	switch {
	case n == 0:
		return source
	case lang == "go":
		return fmt.Sprintf("%s\nfunc benchM%d() {\n\t_ = 0\n}\n", source, n)
	default:
		return fmt.Sprintf("%s\nvoid benchM%d() {\n  benchL%d: skip;\n}\n", source, n, n)
	}
}

// edit is one edit-session revision: method mi of the session's paper
// program mutated with seed, made unique by method uniq. The zero edit
// is the unmodified program.
type edit struct {
	mi   int
	seed int64
	uniq int64
}

// edited returns the revision's program (without the unique method,
// which no query names) and its full source.
func (in *inputs) edited(sess int, e edit) (*syntax.Program, string) {
	p := in.paper[sess].prog
	if e == (edit{}) {
		return p, in.paper[sess].source
	}
	p = progen.MutateMethod(p, e.mi, e.seed)
	return p, withUniq(syntax.Print(p), "", e.uniq)
}
