package core

// Search kernels and their worker-pool discipline. The k-subset
// enumerations behind every discovery mode are embarrassingly parallel —
// the subset space partitions into contiguous ranges, and a Discoverer is
// read-only during search, so workers share it freely. Each search
// (BruteForce, Alg. 1 partitioned by first element; Apriori, Alg. 3 with
// every level-wise stage partitioned into spans) is one kernel that runs
// at any worker count: at one worker its plan is a single span that
// par.ForEach runs inline, so the sequential search is the parallel code,
// not a copy of it. Results never depend on the worker count:
//
//   - Candidate order is preserved: each stage's spans are concatenated in
//     span order, reproducing the lexicographic level layout exactly, so
//     downstream stages see the same input at any worker count.
//   - Per-span bests merge deterministically (top2): equal scores break
//     toward the lexicographically smallest key subset (lessKeys), so
//     which subset a worker happened to score never shows through.
//   - The Constraint.MaxCandidates budget is enforced through a shared
//     atomic counter: the search errors with ErrSearchBudget exactly when
//     the total candidate volume exceeds the budget. Workers may
//     transiently overshoot the counter before observing the abort flag
//     (by at most one in-flight candidate per worker — the first failed
//     take stops a worker's stage), but the overshoot is never published:
//     success and failure, and the preview returned on success, are
//     identical at any worker count.
//
// This is an engineering extension beyond the paper (whose C++
// implementation was single-threaded); it makes ground-truth validation of
// the faster algorithms affordable on larger schemas and lets one server
// answer distance-constrained previews with all its cores.

import (
	"math"
	"sync/atomic"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/par"
)

// spanFactor is how many spans each stage plans per worker when there is
// more than one. More spans than workers keeps the pull-based pool
// load-balanced when candidate blocks are skewed; the partition never
// affects results, only balance.
const spanFactor = 8

// searchWorkers resolves a search's worker count: one worker per core
// (par.Auto) when workers <= 0.
func searchWorkers(workers int) int {
	if workers <= 0 {
		return par.Auto()
	}
	return workers
}

// spanPlan partitions n work items for a stage run on workers: a single
// span at one worker (there is nothing to balance, and per-span slots
// would only cost allocations), spanFactor spans per worker otherwise.
func spanPlan(n, workers int) []par.Span {
	chunks := workers * spanFactor
	if workers == 1 {
		chunks = 1
	}
	return par.Spans(n, chunks)
}

// searchTypes validates c and returns the usable types a k-subset search
// enumerates, or ErrNoPreview when there are fewer than c.K of them.
func (d *Discoverer) searchTypes(c Constraint) ([]graph.TypeID, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	types := d.usableTypes()
	if len(types) < c.K {
		return nil, ErrNoPreview
	}
	if c.Mode != Concise {
		d.Distances() // materialize once, not under every worker's first query
	}
	return types, nil
}

// top2 folds scored key subsets into the best one and the runner-up
// score. The best is the highest score, equal scores breaking toward the
// lexicographically smallest subset; the runner-up is the maximum score
// over every other subset offered (-Inf when there is none). Both are
// functions of the set of offered subsets, not of the order they arrive
// in, so per-span folds merge to the same result at any worker count.
type top2 struct {
	keys   []graph.TypeID
	score  float64
	second float64
	found  bool
}

func newTop2() top2 { return top2{second: math.Inf(-1)} }

// offer folds in one scored subset; keys is copied.
func (t *top2) offer(keys []graph.TypeID, score float64) {
	switch {
	case !t.found:
		t.score = score
		t.keys = append(t.keys[:0], keys...)
		t.found = true
	case score > t.score || (score == t.score && lessKeys(keys, t.keys)):
		// The displaced best competes for runner-up (after a merge the
		// runner-up may already exceed it).
		t.second = math.Max(t.second, t.score)
		t.score = score
		t.keys = append(t.keys[:0], keys...)
	case score > t.second:
		t.second = score
	}
}

// merge folds in another fold's subsets.
func (t *top2) merge(o top2) {
	t.second = math.Max(t.second, o.second)
	if o.found {
		t.offer(o.keys, o.score)
	}
}

// preview materializes a finished search's winner, or reports
// ErrNoPreview when it scored nothing.
func (d *Discoverer) preview(best top2, n int, stats SearchStats) (Preview, error) {
	if !best.found {
		return Preview{}, ErrNoPreview
	}
	p, err := d.ComputePreview(best.keys, n)
	if err != nil {
		return Preview{}, err
	}
	p.Stats = stats
	return p, nil
}

// lessKeys orders key subsets lexicographically.
func lessKeys(a, b []graph.TypeID) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// budgetCounter enforces Constraint.MaxCandidates across workers: every
// produced candidate takes one ticket from a shared atomic counter, and
// the first take past the limit raises the exceeded flag that workers poll
// at stage boundaries. The counter may transiently run past the limit
// (bounded by one in-flight candidate per worker), but the overshoot is
// never published — the search's outcome depends only on whether the total
// candidate volume exceeds the budget.
type budgetCounter struct {
	limit    int64 // <= 0: unlimited
	produced atomic.Int64
	exceeded atomic.Bool
}

func newBudgetCounter(limit int) *budgetCounter {
	return &budgetCounter{limit: int64(limit)}
}

// take accounts one produced candidate, reporting false once the budget is
// exhausted. Unlimited budgets skip the shared counter entirely: a
// contended atomic add per candidate on the innermost join loop would
// serialize the very stage being parallelized, and with no limit the
// counter decides nothing (stats come from the level lengths).
func (b *budgetCounter) take() bool {
	if b.limit <= 0 {
		return true
	}
	if n := b.produced.Add(1); n > b.limit {
		b.exceeded.Store(true)
		return false
	}
	return true
}

// ok reports whether the budget still holds.
func (b *budgetCounter) ok() bool { return !b.exceeded.Load() }

// concatInt32 concatenates span outputs in span order, reproducing the
// lexicographic enumeration order exactly. A single part (the one-worker
// plan) is returned as is.
func concatInt32(parts [][]int32) []int32 {
	if len(parts) == 1 {
		return parts[0]
	}
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int32, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
