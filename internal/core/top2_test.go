package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/uta-db/previewtables/internal/graph"
)

// TestTop2MergeMatchesSingleFold: folding scored subsets in contiguous
// parts and merging the parts in order gives the same best, runner-up and
// tie-break as one fold over all of them — the property that makes the
// search kernels' answers independent of their span plan. Scores come
// from a small range so ties are common.
func TestTop2MergeMatchesSingleFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(12)
		keys := rng.Perm(n)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(5))
		}
		whole := newTop2()
		for i := range keys {
			whole.offer([]graph.TypeID{graph.TypeID(keys[i])}, scores[i])
		}
		merged := newTop2()
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			part := newTop2()
			for i := lo; i < hi; i++ {
				part.offer([]graph.TypeID{graph.TypeID(keys[i])}, scores[i])
			}
			merged.merge(part)
			lo = hi
		}
		if !reflect.DeepEqual(whole, merged) {
			t.Fatalf("trial %d (keys %v, scores %v): one fold %+v, merged parts %+v", trial, keys, scores, whole, merged)
		}
	}
}
