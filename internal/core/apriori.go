package core

// Apriori-style optimal tight/diverse preview discovery (Alg. 3).
//
// Step 1 finds all k-subsets of entity types whose pairwise distances
// satisfy the constraint — equivalently, all k-cliques of the "compatibility
// graph" whose vertices are entity types and whose edges join pairs within
// distance d (tight) or at least d apart (diverse). Candidates are grown
// level-wise à la Apriori frequent-itemset mining [1]: two (i−1)-subsets
// sharing their first i−2 elements merge into an i-subset, and only the one
// new pair needs a distance check (the pairwise constraint is downward
// closed, so both parents being valid covers every other pair).
//
// Step 2 assembles the preview of each surviving k-subset per Theorem 3
// (ComputePreview) and returns the best.
//
// Candidate levels are stored flat (one []int32 with a fixed stride) rather
// than as a slice of slices: the d-sweep experiments of Fig. 9 generate
// millions of candidates at loose distance constraints, and per-candidate
// slice headers would triple the memory bill.
//
// One kernel, aprioriTop2, serves every worker count: each stage is
// partitioned into spans (parallel.go), and at one worker the single span
// runs inline on the calling goroutine. CliqueDFS and AnytimeBest share
// one sequential depth-first enumeration, cliqueSearch.

import (
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/par"
)

// Apriori solves optimal tight/diverse preview discovery: AprioriParallel
// at one worker. In Concise mode (no distance constraint) every pair is
// compatible, making it an exhaustive — and slower — equivalent of
// BruteForce; it is permitted for testing but DynamicProgramming should be
// preferred.
func (d *Discoverer) Apriori(c Constraint) (Preview, error) {
	return d.AprioriParallel(c, 1)
}

// AprioriParallel is Apriori over workers goroutines (one per core,
// par.Auto, when workers <= 0). Every stage — each level-wise join, the
// valid pairs included, and the final candidate scoring — partitions its
// input into contiguous spans executed by a shared worker pool, with span
// outputs concatenated in span order so each level's flat layout is the
// same at any worker count. It returns the same preview, stats included,
// at any worker count, and ErrSearchBudget under exactly the same
// candidate volumes.
func (d *Discoverer) AprioriParallel(c Constraint, workers int) (Preview, error) {
	p, _, err := d.aprioriTop2(c, workers)
	return p, err
}

// aprioriTop2 is the Apriori kernel. Alongside the optimal preview it
// returns the runner-up score: the maximum preview score over every
// feasible k-subset other than the winner (-Inf when the winner is the
// only feasible subset). The runner-up is what the incremental Maintained
// state needs — an upper bound on how well any other subset scored — and
// it is a pure function of the candidate set (see top2), so it is the same
// at any worker count.
func (d *Discoverer) aprioriTop2(c Constraint, workers int) (Preview, float64, error) {
	types, err := d.searchTypes(c)
	if err != nil {
		return Preview{}, 0, err
	}
	workers = searchWorkers(workers)

	// Level i holds all valid i-subsets as indexes into types, flattened
	// with stride i, lexicographically sorted by construction. Level 1 is
	// every type; joining it yields the valid pairs.
	level := make([]int32, len(types))
	for i := range level {
		level[i] = int32(i)
	}
	var stats SearchStats
	budget := newBudgetCounter(c.MaxCandidates)
	for stride := 1; stride < c.K && len(level) > 0; stride++ {
		if level, err = d.joinLevel(c, types, level, stride, workers, budget); err != nil {
			return Preview{}, 0, err
		}
		stats.CandidatesGenerated += len(level) / (stride + 1)
	}
	if len(level) == 0 {
		return Preview{}, 0, ErrNoPreview
	}

	// Score the surviving k-subsets: per-span folds, merged in span order.
	k := c.K
	stats.SubsetsScored = len(level) / k
	spans := spanPlan(stats.SubsetsScored, workers)
	bests := make([]top2, len(spans))
	par.ForEach(workers, len(spans), func(si int) {
		keys := make([]graph.TypeID, k)
		take := make([]int, k)
		best := newTop2()
		for off := spans[si].Lo * k; off < spans[si].Hi*k; off += k {
			for i := range keys {
				keys[i] = types[level[off+i]]
			}
			best.offer(keys, d.previewScore(keys, c.N, take))
		}
		bests[si] = best
	})
	win := newTop2()
	for _, b := range bests {
		win.merge(b)
	}
	p, err := d.preview(win, c.N, stats)
	return p, win.second, err
}

// joinLevel merges a flat level of stride-subsets into the flat level of
// (stride+1)-subsets. Blocks sharing a prefix are contiguous because
// levels are generated in lexicographic order; within a block only the
// new last-element pair needs a distance check (at stride 1 every pair is
// one block, so the join generates the valid pairs). The blocks are
// partitioned across workers and span outputs concatenate in span order,
// so the produced level is the same at any worker count. Every produced
// candidate takes a budget ticket; ErrSearchBudget reports that the
// budget ran out (a join that produces nothing completes even when the
// budget is used up).
func (d *Discoverer) joinLevel(c Constraint, types []graph.TypeID, level []int32, stride, workers int, budget *budgetCounter) ([]int32, error) {
	nCands := len(level) / stride
	spans := spanPlan(nCands, workers)
	parts := make([][]int32, len(spans))
	par.ForEach(workers, len(spans), func(si int) {
		var out []int32
		for a := spans[si].Lo; a < spans[si].Hi && budget.ok(); a++ {
			offA := a * stride
			for b := a + 1; b < nCands; b++ {
				offB := b * stride
				if !samePrefix(level[offA:offA+stride], level[offB:offB+stride]) {
					break
				}
				ta := types[level[offA+stride-1]]
				tb := types[level[offB+stride-1]]
				if !d.distOK(c, ta, tb) {
					continue
				}
				if !budget.take() {
					return
				}
				out = append(out, level[offA:offA+stride]...)
				out = append(out, level[offB+stride-1])
			}
		}
		parts[si] = out
	})
	if !budget.ok() {
		return nil, ErrSearchBudget
	}
	return concatInt32(parts), nil
}

// samePrefix reports whether a and b agree on all but their last element.
func samePrefix(a, b []int32) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CliqueDFS solves the same problem as Apriori with a depth-first k-clique
// backtracking enumeration instead of level-wise candidate generation. The
// paper (citing Kose et al. [11]) argues the Apriori style beats classic
// clique enumeration; this implementation is the comparison point for that
// ablation (BenchmarkAblationCliqueEnumeration).
func (d *Discoverer) CliqueDFS(c Constraint) (Preview, error) {
	types, err := d.searchTypes(c)
	if err != nil {
		return Preview{}, err
	}
	best, stats, exceeded := d.cliqueSearch(c, types)
	if exceeded {
		return Preview{}, ErrSearchBudget
	}
	return d.preview(best, c.N, stats)
}

// AnytimeBest is the anytime variant of discovery: it runs the depth-first
// clique enumeration under c.MaxCandidates and, where CliqueDFS reports
// ErrSearchBudget, instead returns the best preview found so far. The
// boolean reports whether enumeration completed within the budget (the
// result is then exact, equal to what Discover returns). Concise mode has
// no distance constraint and dynamic programming is already cheap and
// exact, so it is answered exactly regardless of budget.
//
// The enumeration is sequential and visits subsets in a fixed
// lexicographic order, so the partial answer for a given (scores, budget)
// pair is deterministic — a leader and a caught-up follower return the
// same bytes, which the response cache relies on.
func (d *Discoverer) AnytimeBest(c Constraint) (Preview, bool, error) {
	if err := c.Validate(); err != nil {
		return Preview{}, false, err
	}
	if c.Mode == Concise {
		p, err := d.DynamicProgramming(c)
		return p, true, err
	}
	types, err := d.searchTypes(c)
	if err != nil {
		return Preview{}, true, err // ErrNoPreview: c is valid
	}
	best, stats, exceeded := d.cliqueSearch(c, types)
	if exceeded && !best.found {
		return Preview{}, false, ErrSearchBudget
	}
	p, err := d.preview(best, c.N, stats)
	return p, !exceeded, err
}

// cliqueSearch is the budgeted depth-first k-clique enumeration behind
// CliqueDFS and AnytimeBest. A partial subset is extended, in
// lexicographic order, only by types compatible with every member; each
// extension is one generated candidate, and the enumeration stops at the
// first candidate past c.MaxCandidates. It returns the best complete
// subset scored so far, the work done, and whether the budget cut the
// enumeration short.
func (d *Discoverer) cliqueSearch(c Constraint, types []graph.TypeID) (best top2, stats SearchStats, exceeded bool) {
	best = newTop2()
	subset := make([]graph.TypeID, c.K)
	take := make([]int, c.K)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == c.K {
			stats.SubsetsScored++
			best.offer(subset, d.previewScore(subset, c.N, take))
			return
		}
		for i := start; i <= len(types)-(c.K-pos) && !exceeded; i++ {
			t := types[i]
			ok := true
			for q := 0; q < pos; q++ {
				if !d.distOK(c, subset[q], t) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if c.MaxCandidates > 0 && stats.CandidatesGenerated >= c.MaxCandidates {
				exceeded = true
				return
			}
			stats.CandidatesGenerated++
			subset[pos] = t
			rec(pos+1, i+1)
		}
	}
	rec(0, 0)
	return best, stats, exceeded
}
