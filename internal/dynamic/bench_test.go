package dynamic_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// BenchmarkLiveApply measures one 16-edge write batch through Live.Apply
// — mutation, score refresh and the frozen-graph publication — on the
// 30k-entity music graph, in three arms:
//
//   - repeated: every edge repeats one the graph already has (the
//     serving benchmark's write mix), so the frozen graph cannot change;
//   - new-pairs: every edge links two existing entities by a pair the
//     relationship does not hold yet;
//   - new-entity: one edge from a fresh entity, plus 15 repeated edges.
func BenchmarkLiveApply(b *testing.B) {
	opts := freebase.DefaultGenOptions()
	opts.TargetEntities = 30000
	base, err := freebase.Generate("music", opts)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 16
	repeat := func(rng *rand.Rand, g *dynamic.Graph) error {
		ed := base.Edge(graph.EdgeID(rng.Intn(base.NumEdges())))
		return g.AddEdge(ed.From, ed.To, ed.Rel)
	}
	for _, arm := range []struct {
		name  string
		batch func(rng *rand.Rand, g *dynamic.Graph, pairs map[graph.Edge]bool, i int) error
	}{
		{"repeated", func(rng *rand.Rand, g *dynamic.Graph, _ map[graph.Edge]bool, _ int) error {
			for j := 0; j < batch; j++ {
				if err := repeat(rng, g); err != nil {
					return err
				}
			}
			return nil
		}},
		{"new-pairs", func(rng *rand.Rand, g *dynamic.Graph, pairs map[graph.Edge]bool, _ int) error {
			for j := 0; j < batch; j++ {
				ed := newPair(rng, base, pairs)
				if err := g.AddEdge(ed.From, ed.To, ed.Rel); err != nil {
					return err
				}
			}
			return nil
		}},
		{"new-entity", func(rng *rand.Rand, g *dynamic.Graph, _ map[graph.Edge]bool, i int) error {
			rel, to := graph.RelTypeID(0), []graph.EntityID(nil)
			for len(to) == 0 {
				rel = graph.RelTypeID(rng.Intn(base.NumRelTypes()))
				to = base.EntitiesOfType(base.RelType(rel).To)
			}
			e := g.Entity(fmt.Sprintf("bench new entity %d", i), base.RelType(rel).From)
			if err := g.AddEdge(e, to[rng.Intn(len(to))], rel); err != nil {
				return err
			}
			for j := 1; j < batch; j++ {
				if err := repeat(rng, g); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			dg, err := dynamic.FromEntityGraph(base)
			if err != nil {
				b.Fatal(err)
			}
			live, err := dynamic.NewLive(dg, score.DefaultWalkOptions())
			if err != nil {
				b.Fatal(err)
			}
			pairs := make(map[graph.Edge]bool, base.NumEdges())
			for i := 0; i < base.NumEdges(); i++ {
				pairs[base.Edge(graph.EdgeID(i))] = true
			}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := live.Apply(func(g *dynamic.Graph) error { return arm.batch(rng, g, pairs, i) }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newPair picks a relationship instance between two existing entities
// that no earlier edge holds, and records it as held.
func newPair(rng *rand.Rand, g *graph.EntityGraph, pairs map[graph.Edge]bool) graph.Edge {
	for {
		rel := graph.RelTypeID(rng.Intn(g.NumRelTypes()))
		rt := g.RelType(rel)
		from, to := g.EntitiesOfType(rt.From), g.EntitiesOfType(rt.To)
		if len(from) == 0 || len(to) == 0 {
			continue
		}
		ed := graph.Edge{From: from[rng.Intn(len(from))], To: to[rng.Intn(len(to))], Rel: rel}
		if !pairs[ed] {
			pairs[ed] = true
			return ed
		}
	}
}
