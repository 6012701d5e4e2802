package core

// Brute-force optimal preview discovery (Alg. 1). Enumerates every k-subset
// of usable entity types, filters complete subsets by the pairwise distance
// constraint when in Tight/Diverse mode, assembles each surviving preview
// per Theorem 3 and keeps the best.
//
// Faithful to the paper, the distance check happens on complete k-subsets
// ("by performing distance check on every pair of preview tables in each
// k-subset of entity types") — no early pruning. That is exactly what makes
// the Apriori-style algorithm of Alg. 3 outperform it by orders of
// magnitude in Fig. 9; an early-pruning brute force would blur that
// comparison. It serves as ground truth in tests and as the baseline of the
// efficiency experiments (Figs. 8–9).
//
// One enumeration serves every worker count: the subset space is
// partitioned by first element into spans (parallel.go), and at one
// worker the single span runs inline on the calling goroutine.

import (
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/par"
)

// BruteForce solves the optimal preview discovery problem by exhaustive
// enumeration: BruteForceParallel at one worker. It supports all three
// modes. Returns ErrNoPreview when the constrained space is empty.
func (d *Discoverer) BruteForce(c Constraint) (Preview, error) {
	return d.BruteForceParallel(c, 1)
}

// BruteForceParallel is BruteForce over workers goroutines (one per core,
// par.Auto, when workers <= 0). It returns the same preview, stats
// included, at any worker count: when several subsets tie, the
// lexicographically smallest tied key subset, so results do not depend on
// scheduling.
func (d *Discoverer) BruteForceParallel(c Constraint, workers int) (Preview, error) {
	types, err := d.searchTypes(c)
	if err != nil {
		return Preview{}, err
	}
	workers = searchWorkers(workers)

	type result struct {
		best   top2
		scored int
	}
	spans := spanPlan(len(types)-c.K+1, workers)
	results := make([]result, len(spans))
	par.ForEach(workers, len(spans), func(si int) {
		subset := make([]graph.TypeID, c.K)
		take := make([]int, c.K) // allocation-free scoring scratch
		res := result{best: newTop2()}
		var rec func(pos, start int)
		rec = func(pos, start int) {
			if pos == c.K {
				if c.Mode == Concise || d.pairwiseOK(c, subset) {
					res.scored++
					res.best.offer(subset, d.previewScore(subset, c.N, take))
				}
				return
			}
			for i := start; i <= len(types)-(c.K-pos); i++ {
				subset[pos] = types[i]
				rec(pos+1, i+1)
			}
		}
		for i := spans[si].Lo; i < spans[si].Hi; i++ {
			subset[0] = types[i]
			rec(1, i+1)
		}
		results[si] = res
	})

	best := newTop2()
	var stats SearchStats
	for _, res := range results {
		best.merge(res.best)
		stats.SubsetsScored += res.scored
	}
	return d.preview(best, c.N, stats)
}

// pairwiseOK checks the distance constraint on every pair of the subset.
func (d *Discoverer) pairwiseOK(c Constraint, subset []graph.TypeID) bool {
	for i := 0; i < len(subset); i++ {
		for j := i + 1; j < len(subset); j++ {
			if !d.distOK(c, subset[i], subset[j]) {
				return false
			}
		}
	}
	return true
}
