package main

import (
	"fmt"
	"math/rand"
	"time"
)

// workload is one traffic mix; README.md says why each exists. Every
// workload starts from the same set-up (a fresh daemon that has
// analyzed the corpus); sessions adds the edit-session delta sessions.
type workload struct {
	name string
	// heavy is the request kind client.heavy_p50_ms reports.
	heavy    opKind
	sessions bool
	// clients builds the workload's connections for a run.
	clients func(in *inputs, cfg config) []*client
}

var allWorkloads = []*workload{
	{name: "cold-corpus", heavy: opAnalyze, clients: coldClients},
	{name: "hot-mixed", heavy: opAnalyze, clients: hotClients},
	{name: "edit-session", heavy: opDelta, sessions: true, clients: editClients},
	{name: "huge-interleaved", heavy: opHuge, clients: hugeClients},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// numClients is the connection count of every workload: the host's
// two CPUs.
const numClients = 2

// clientRand seeds client c's request sequence.
func clientRand(cfg config, c int) *rand.Rand {
	return rand.New(rand.NewSource(cfg.seed*1000003 + int64(c)))
}

// deck deals 0..n-1 in seeded shuffled rounds. Every index comes up
// equally often, so a run's request mix is exact rather than a random
// draw, and what varies between runs is the order and the system.
type deck struct {
	rng   *rand.Rand
	order []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return &deck{rng: rng, order: order, next: n}
}

func (d *deck) deal() int {
	if d.next == len(d.order) {
		d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.next = 0
	}
	d.next++
	return d.order[d.next-1]
}

// kindDeck deals request kinds in the given proportions.
func kindDeck(rng *rand.Rand, weights ...int) func() opKind {
	var kinds []opKind
	for k, w := range weights {
		for i := 0; i < w; i++ {
			kinds = append(kinds, opKind(k))
		}
	}
	d := newDeck(rng, len(kinds))
	return func() opKind { return kinds[d.deal()] }
}

// uniqueNumber numbers a client's k-th unique input, distinct across
// clients.
func uniqueNumber(k, c int) int64 { return int64(k*numClients + c + 1) }

func closed(g gen) *client { return &client{gen: g, hc: conn()} }

func coldClients(in *inputs, cfg config) []*client {
	var cs []*client
	for c := 0; c < numClients; c++ {
		rng, k := clientRand(cfg, c), 0
		kind := kindDeck(rng, 3, 1) // analyze:goanalyze
		paper, goPool := newDeck(rng, len(in.paper)), newDeck(rng, len(in.goPool))
		cs = append(cs, closed(func(*record) request {
			k++
			u := uniqueNumber(k, c)
			if kind() == opAnalyze {
				p := in.paper[paper.deal()]
				return analyzeRequest(op{kind: opAnalyze, base: p.source, uniq: u}, withUniq(p.source, "", u))
			}
			src := in.goPool[goPool.deal()]
			return analyzeRequest(op{kind: opGoAnalyze, lang: "go", base: src, uniq: u}, withUniq(src, "go", u))
		}))
	}
	return cs
}

// corpusOp builds an analyze or query of a warmed corpus program.
func corpusOp(rng *rand.Rand, kind opKind, p *program) request {
	if kind != opQuery {
		if p.lang == "go" {
			kind = opGoAnalyze
		}
		return analyzeRequest(op{kind: kind, corp: p, lang: p.lang, base: p.source}, p.source)
	}
	n := len(p.prog.Labels)
	la, lb := rng.Intn(n), rng.Intn(n)
	return queryRequest(op{
		kind: opQuery, corp: p, hash: p.hash, la: la, lb: lb,
		a: p.prog.Labels[la].Name, b: p.prog.Labels[lb].Name,
	})
}

func hotClients(in *inputs, cfg config) []*client {
	var cs []*client
	for c := 0; c < numClients; c++ {
		rng := clientRand(cfg, c)
		kind := kindDeck(rng, 3, 1, 8) // analyze:goanalyze:query
		corpus, paper, goCorp := newDeck(rng, len(in.corpus)), newDeck(rng, len(in.paper)), newDeck(rng, len(in.goCorp))
		cs = append(cs, closed(func(*record) request {
			switch kind() {
			case opQuery:
				return corpusOp(rng, opQuery, in.corpus[corpus.deal()])
			case opAnalyze:
				return corpusOp(rng, opAnalyze, in.paper[paper.deal()])
			default:
				return corpusOp(rng, opGoAnalyze, in.goCorp[goCorp.deal()])
			}
		}))
	}
	return cs
}

// sessionID names client c's session for paper program s.
func sessionID(in *inputs, c, s int) string { return fmt.Sprintf("c%d-%s", c, in.paper[s].name) }

func editClients(in *inputs, cfg config) []*client {
	var cs []*client
	for c := 0; c < numClients; c++ {
		rng, k := clientRand(cfg, c), 0
		sessions := newDeck(rng, len(in.paper))
		prev := make([]edit, len(in.paper)) // each session's current revision
		var labels []string                 // labels of the last revision sent
		cs = append(cs, closed(func(last *record) request {
			if last != nil && last.op.kind == opDelta && last.ok() {
				o := last.op
				return queryRequest(op{
					kind: opQuery, sess: o.sess, edit: o.edit, hash: last.hash,
					a: labels[rng.Intn(len(labels))], b: labels[rng.Intn(len(labels))],
				})
			}
			k++
			s := sessions.deal()
			e := edit{mi: rng.Intn(len(in.paper[s].prog.Methods)), seed: rng.Int63(), uniq: uniqueNumber(k, c)}
			p, src := in.edited(s, e)
			labels = labels[:0]
			for _, l := range p.Labels {
				labels = append(labels, l.Name)
			}
			o := op{kind: opDelta, sess: s, edit: e, prev: prev[s], session: sessionID(in, c, s)}
			prev[s] = e
			return deltaRequest(o, src)
		}))
	}
	return cs
}

// huge-interleaved pacing. The big client pauses like a user reading a
// result; that also bounds how many 40 MB cache entries a run leaves in
// the daemon's program cache, which counts entries, not bytes.
const (
	hugeThink = 400 * time.Millisecond
	openRate  = 50 // small requests per second
)

func hugeClients(in *inputs, cfg config) []*client {
	k := 0
	big := &client{think: hugeThink, hc: conn(), gen: func(*record) request {
		k++
		src := in.huge[k%len(in.huge)]
		u := uniqueNumber(k, 0)
		return analyzeRequest(op{kind: opHuge, base: src, uniq: u}, withUniq(src, "", u))
	}}
	rng := clientRand(cfg, 1)
	kind := kindDeck(rng, 1, 0, 3) // analyze:goanalyze:query
	corpus, paper := newDeck(rng, len(in.corpus)), newDeck(rng, len(in.paper))
	small := &client{rate: openRate, hc: conn(), gen: func(*record) request {
		if kind() == opQuery {
			return corpusOp(rng, opQuery, in.corpus[corpus.deal()])
		}
		return corpusOp(rng, opAnalyze, in.paper[paper.deal()])
	}}
	return []*client{big, small}
}

// windowStats is what validity checks look at.
type windowStats struct {
	recs        []*record
	programHits uint64 // engine program-cache hits during the window
}

// validity lists the ways a run failed to measure what its workload
// claims; each is a reason to reject the run, not a slow result.
func (w *workload) validity(ws windowStats, cfg config) []string {
	var problems []string
	count := func(pred func(*record) bool) (n int) {
		for _, r := range ws.recs {
			if pred(r) {
				n++
			}
		}
		return n
	}
	switch w.name {
	case "cold-corpus":
		if ws.programHits > 0 {
			problems = append(problems, fmt.Sprintf("cold-corpus: %d program-cache hits, want 0", ws.programHits))
		}
	case "hot-mixed":
		total := count(func(r *record) bool { return r.ok() })
		hits := count(func(r *record) bool { return r.ok() && (r.op.kind == opQuery || r.cached) })
		if total == 0 || float64(hits) < 0.99*float64(total) {
			problems = append(problems, fmt.Sprintf("hot-mixed: %d of %d requests served from a cache, want ≥ 99%%", hits, total))
		}
	case "edit-session":
		deltas := count(func(r *record) bool { return r.ok() && r.op.kind == opDelta })
		full := count(func(r *record) bool { return r.ok() && r.full })
		if deltas == 0 || float64(full) > 0.05*float64(deltas) {
			problems = append(problems, fmt.Sprintf("edit-session: %d of %d deltas fell back to a full solve, want ≤ 5%%", full, deltas))
		}
	case "huge-interleaved":
		if n := count(func(r *record) bool { return r.ok() && r.op.kind == opHuge }); n < cfg.minHuge {
			problems = append(problems, fmt.Sprintf("huge-interleaved: %d huge analyses in the window, want ≥ %d", n, cfg.minHuge))
		}
	}
	return problems
}
