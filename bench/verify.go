package main

import (
	"encoding/hex"
	"fmt"
	"math/rand"

	"fx10/internal/engine"
)

// maxHugeChecked bounds the huge-tier analyses a run re-solves to check
// or replay: each costs a quarter second or more.
const maxHugeChecked = 4

// sample picks a seeded random subset of recs: at most max records,
// of which at most maxHuge are huge-tier analyses.
func sample(recs []*record, seed int64, max, maxHuge int) []*record {
	shuffled := append([]*record(nil), recs...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var out []*record
	huge := 0
	for _, r := range shuffled {
		if len(out) == max {
			break
		}
		if r.op.kind == opHuge {
			if huge == maxHuge {
				continue
			}
			huge++
		}
		out = append(out, r)
	}
	return out
}

// verify recomputes, on the reference engine, the answers to a seeded
// sample of the window's requests on unique inputs and marks every
// disagreement as a failed op. A delta is checked against a solve from
// scratch of the edited program. Requests about corpus programs were
// checked as they came back. It returns the number checked.
func verify(in *inputs, recs []*record, cfg config) (int, error) {
	var todo []*record
	for _, r := range recs {
		if r.ok() && r.op.corp == nil {
			todo = append(todo, r)
		}
	}
	picked := sample(todo, cfg.seed, cfg.verifyMax, maxHugeChecked)
	// Batches bound how many solved results are alive at once.
	const batch = 8
	for lo := 0; lo < len(picked); lo += batch {
		part := picked[lo:min(lo+batch, len(picked))]
		jobs := make([]engine.Job, len(part))
		for i, r := range part {
			p, _, err := lower(in.source(&r.op), r.op.lang)
			if err != nil {
				return 0, fmt.Errorf("verify: regenerate %s input: %w", r.op.kind, err)
			}
			jobs[i] = engine.Job{Program: p}
		}
		for i, cr := range in.ref.AnalyzeCorpus(jobs) {
			if cr.Err != nil {
				return 0, fmt.Errorf("verify: reference analysis: %w", cr.Err)
			}
			if !agrees(part[i], cr.Result) {
				part[i].fail = failMismatch
			}
		}
	}
	return len(picked), nil
}

// agrees compares one response with the reference result for the
// program it was about.
func agrees(r *record, res *engine.Result) bool {
	h := res.Program.Hash()
	hash := hex.EncodeToString(h[:])
	if r.op.kind == opQuery {
		la, okA := res.Program.LabelByName(r.op.a)
		lb, okB := res.Program.LabelByName(r.op.b)
		return okA && okB && r.op.hash == hash && r.verdict == res.M.Has(int(la), int(lb))
	}
	return r.hash == hash && r.digest == reportDigest(res)
}
