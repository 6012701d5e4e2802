package dynamic

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
)

// referenceFreeze is the straightforward Freeze: every type, entity and
// deduplicated edge is redeclared through a graph.Builder, by name. The
// incremental Freeze must produce exactly its output.
func referenceFreeze(g *Graph) (*graph.EntityGraph, error) {
	var b graph.Builder
	for _, name := range g.typeNames {
		b.Type(name)
	}
	relIDs := make([]graph.RelTypeID, len(g.rels))
	for i, r := range g.rels {
		relIDs[i] = b.RelType(r.Name, r.From, r.To)
	}
	for i, name := range g.entNames {
		b.Entity(name, g.entTypes[i]...)
	}
	for ri := range g.rels {
		h := g.hist[ri][0]
		// Deterministic edge order: sources ascending, then values.
		srcs := make([]graph.EntityID, 0, len(h.values))
		for e := range h.values {
			srcs = append(srcs, e)
		}
		sort.Slice(srcs, func(a, b int) bool { return srcs[a] < srcs[b] })
		for _, e := range srcs {
			for _, v := range h.values[e] {
				b.Edge(b.Entity(g.entNames[e]), b.Entity(g.entNames[v]), relIDs[ri])
			}
		}
	}
	return b.Build()
}

// fingerprint renders everything a frozen graph exposes, one named
// section each: the snapshot encoding (names, type lists, edges in
// order) and what it leaves out — edge counts, per-type entity lists,
// name lookups, adjacency and schema incidence.
func fingerprint(t *testing.T, g *graph.EntityGraph) map[string]string {
	t.Helper()
	var snap bytes.Buffer
	if err := storage.Write(&snap, g); err != nil {
		t.Fatal(err)
	}
	var counts, members, names, adj, schema bytes.Buffer
	for r := 0; r < g.NumRelTypes(); r++ {
		fmt.Fprintln(&counts, g.RelType(graph.RelTypeID(r)).EdgeCount)
	}
	for i := 0; i < g.NumTypes(); i++ {
		ty := graph.TypeID(i)
		fmt.Fprintln(&members, g.EntitiesOfType(ty))
		id, ok := g.TypeByName(g.TypeName(ty))
		fmt.Fprintln(&names, "type", id, ok)
		fmt.Fprintln(&schema, g.SchemaOut(ty), g.SchemaIn(ty))
	}
	for i := 0; i < g.NumEntities(); i++ {
		e := graph.EntityID(i)
		id, ok := g.EntityByName(g.EntityName(e))
		fmt.Fprintln(&names, "entity", id, ok)
		fmt.Fprintln(&adj, g.OutEdges(e), g.InEdges(e))
	}
	_, ok := g.EntityByName("no such entity")
	fmt.Fprintln(&names, "absent", ok)
	return map[string]string{
		"snapshot encoding": snap.String(),
		"edge counts":       counts.String(),
		"type members":      members.String(),
		"name maps":         names.String(),
		"adjacency":         adj.String(),
		"schema incidence":  schema.String(),
	}
}

func diffPrints(got, want map[string]string) []string {
	var diff []string
	for k := range want {
		if got[k] != want[k] {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	return diff
}

// assertFrozenMatchesReference checks the published frozen graph against
// referenceFreeze on the live graph's current state.
func assertFrozenMatchesReference(t *testing.T, g *Graph, frozen *graph.EntityGraph) map[string]string {
	t.Helper()
	want, err := referenceFreeze(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := frozen.Validate(); err != nil {
		t.Fatalf("frozen graph invalid: %v", err)
	}
	got := fingerprint(t, frozen)
	if diff := diffPrints(got, fingerprint(t, want)); len(diff) > 0 {
		t.Fatalf("frozen graph differs from the reference freeze in %v", diff)
	}
	return got
}

// TestFreezeDifferential drives seeded random batch streams through Live
// and checks every published frozen graph against referenceFreeze. The
// streams mix every kind of write Freeze distinguishes: repeated triples
// (parallel edges, which must leave the frozen graph as it was — the
// same pointer), new pairs on existing relationships, new entities,
// extra types on existing entities, and new types and relationship
// types. Once a stream ends, every earlier snapshot is fingerprinted
// again: frozen graphs share slices across epochs, so an in-place edit
// by a later batch would show up here as a changed old snapshot.
func TestFreezeDifferential(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := &Graph{}
			randType := func(g *Graph) graph.TypeID { return graph.TypeID(rng.Intn(len(g.typeNames))) }
			for i := rng.Intn(4) + 2; i > 0; i-- {
				g.Type(fmt.Sprintf("T%d", i))
			}
			for i := rng.Intn(5) + 2; i > 0; i-- {
				if _, err := g.RelType(fmt.Sprintf("r%d", i), randType(g), randType(g)); err != nil {
					t.Fatal(err)
				}
			}
			for i := rng.Intn(40) + 5; i > 0; i-- {
				g.Entity(fmt.Sprintf("e%d", i), randType(g))
			}
			var held []graph.Edge // every edge added, for repeats
			addPair := func(g *Graph) error {
				ed := graph.Edge{
					From: graph.EntityID(rng.Intn(len(g.entNames))),
					To:   graph.EntityID(rng.Intn(len(g.entNames))),
					Rel:  graph.RelTypeID(rng.Intn(len(g.rels))),
				}
				held = append(held, ed)
				return g.AddEdge(ed.From, ed.To, ed.Rel)
			}
			repeat := func(g *Graph) error {
				if len(held) == 0 {
					return nil
				}
				ed := held[rng.Intn(len(held))]
				return g.AddEdge(ed.From, ed.To, ed.Rel)
			}
			for i := rng.Intn(60); i > 0; i-- {
				if err := addPair(g); err != nil {
					t.Fatal(err)
				}
			}
			live, err := NewLive(g, score.DefaultWalkOptions())
			if err != nil {
				t.Fatal(err)
			}
			snaps := []*Snapshot{live.Snapshot()}
			prints := []map[string]string{assertFrozenMatchesReference(t, live.g, live.Snapshot().Frozen)}

			for batch := 0; batch < 30; batch++ {
				repeatsOnly := rng.Intn(3) == 0
				snap, err := live.Apply(func(g *Graph) error {
					for i := rng.Intn(8) + 1; i > 0; i-- {
						op := rng.Intn(10)
						if repeatsOnly {
							op = 0
						}
						var err error
						switch op {
						case 0, 1, 2:
							err = repeat(g)
						case 3, 4, 5:
							err = addPair(g)
						case 6:
							g.Entity(fmt.Sprintf("b%d-%d", batch, i), randType(g))
						case 7:
							g.Entity(g.entNames[rng.Intn(len(g.entNames))], randType(g))
						case 8:
							g.Type(fmt.Sprintf("T-b%d-%d", batch, i))
						case 9:
							_, err = g.RelType(fmt.Sprintf("r-b%d-%d", batch, i), randType(g), randType(g))
						}
						if err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if repeatsOnly && snap.Frozen != snaps[len(snaps)-1].Frozen {
					t.Fatalf("batch %d of repeated edges rebuilt the frozen graph", batch)
				}
				snaps = append(snaps, snap)
				prints = append(prints, assertFrozenMatchesReference(t, live.g, snap.Frozen))
			}

			for i, s := range snaps {
				if diff := diffPrints(fingerprint(t, s.Frozen), prints[i]); len(diff) > 0 {
					t.Errorf("epoch %d's frozen graph changed after publication in %v", s.Epoch, diff)
				}
			}
		})
	}
}

// TestFreezeFailureCachesNothing: a Freeze that fails (an entity left
// without a type) must not become the graph later calls build on. The
// batch that broke it also added a pair; once the entity gets a type,
// the next publication must carry both.
func TestFreezeFailureCachesNothing(t *testing.T) {
	g := &Graph{}
	a, b := g.Type("A"), g.Type("B")
	rel, err := g.RelType("r", a, b)
	if err != nil {
		t.Fatal(err)
	}
	x, y, z := g.Entity("x", a), g.Entity("y", b), g.Entity("z", b)
	if err := g.AddEdge(x, y, rel); err != nil {
		t.Fatal(err)
	}
	live, err := NewLive(g, score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	before := live.Snapshot()

	var orphan graph.EntityID
	if _, err := live.Apply(func(g *Graph) error {
		orphan = g.Entity("orphan")
		return g.AddEdge(x, z, rel)
	}); err == nil {
		t.Fatal("publication of a typeless entity succeeded")
	}
	if live.Snapshot() != before {
		t.Fatal("failed publication swapped the snapshot")
	}
	if _, err := live.g.Freeze(); err == nil {
		t.Fatal("Freeze succeeded while an entity is still typeless")
	}

	snap, err := live.Apply(func(g *Graph) error {
		g.Entity("orphan", a)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Frozen.NumEntities() != 4 || snap.Frozen.NumEdges() != 2 {
		t.Fatalf("frozen graph after recovery has %v, want the orphan and both edges", snap.Frozen.Stats())
	}
	if !snap.Frozen.HasType(orphan, a) {
		t.Fatal("orphan is untyped in the frozen graph")
	}
	assertFrozenMatchesReference(t, live.g, snap.Frozen)
}
