package graph

import (
	"fmt"
	"sort"
)

// Builder incrementally assembles an EntityGraph. It is not safe for
// concurrent use. The zero value is ready to use.
//
// The usual flow is:
//
//	var b graph.Builder
//	film := b.Type("FILM")
//	actor := b.Type("FILM ACTOR")
//	act := b.RelType("Actor", actor, film)
//	will := b.Entity("Will Smith", actor)
//	mib := b.Entity("Men in Black", film)
//	b.Edge(will, mib, act)
//	g, err := b.Build()
type Builder struct {
	entities []Entity
	types    []EntityType
	relTypes []RelType
	edges    []Edge

	entityByName map[string]EntityID
	typeByName   map[string]TypeID
	relByKey     map[relKey]RelTypeID

	err error
}

type relKey struct {
	name     string
	from, to TypeID
}

// Type declares (or finds) the entity type with the given name and returns
// its id. Declaring the same name twice returns the same id.
func (b *Builder) Type(name string) TypeID {
	if b.typeByName == nil {
		b.typeByName = make(map[string]TypeID)
	}
	if id, ok := b.typeByName[name]; ok {
		return id
	}
	id := TypeID(len(b.types))
	b.types = append(b.types, EntityType{Name: name})
	b.typeByName[name] = id
	return id
}

// RelType declares (or finds) the relationship type with the given surface
// name from entity type from to entity type to, and returns its id. Two
// relationship types may share a surface name as long as their endpoint
// types differ (as in the paper's two "Award Winners" relationship types).
func (b *Builder) RelType(name string, from, to TypeID) RelTypeID {
	if b.relByKey == nil {
		b.relByKey = make(map[relKey]RelTypeID)
	}
	k := relKey{name, from, to}
	if id, ok := b.relByKey[k]; ok {
		return id
	}
	if int(from) >= len(b.types) || int(to) >= len(b.types) || from < 0 || to < 0 {
		b.fail(fmt.Errorf("relationship type %q: unknown endpoint type", name))
		return None
	}
	id := RelTypeID(len(b.relTypes))
	b.relTypes = append(b.relTypes, RelType{Name: name, From: from, To: to})
	b.relByKey[k] = id
	return id
}

// Entity declares the entity with the given name bearing the given types and
// returns its id. If the entity already exists, the types are merged into
// its type set. An entity must end up with at least one type by Build time.
func (b *Builder) Entity(name string, types ...TypeID) EntityID {
	if b.entityByName == nil {
		b.entityByName = make(map[string]EntityID)
	}
	id, ok := b.entityByName[name]
	if !ok {
		id = EntityID(len(b.entities))
		b.entities = append(b.entities, Entity{Name: name})
		b.entityByName[name] = id
	}
	for _, t := range types {
		if t < 0 || int(t) >= len(b.types) {
			b.fail(fmt.Errorf("entity %q: unknown type id %d", name, t))
			return id
		}
		b.addType(id, t)
	}
	return id
}

func (b *Builder) addType(e EntityID, t TypeID) {
	ts := b.entities[e].Types
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
	if i < len(ts) && ts[i] == t {
		return
	}
	ts = append(ts, 0)
	copy(ts[i+1:], ts[i:])
	ts[i] = t
	b.entities[e].Types = ts
}

// Edge adds a directed relationship instance from entity from to entity to
// with relationship type rel. The endpoints automatically acquire the
// relationship type's endpoint entity types (the paper: "the type of a
// relationship determines the types of its two end entities").
func (b *Builder) Edge(from, to EntityID, rel RelTypeID) EdgeID {
	if b.err != nil {
		return None
	}
	if from < 0 || int(from) >= len(b.entities) || to < 0 || int(to) >= len(b.entities) {
		b.fail(fmt.Errorf("edge: endpoint out of range (from=%d, to=%d)", from, to))
		return None
	}
	if rel < 0 || int(rel) >= len(b.relTypes) {
		b.fail(fmt.Errorf("edge: unknown relationship type id %d", rel))
		return None
	}
	rt := b.relTypes[rel]
	b.addType(from, rt.From)
	b.addType(to, rt.To)
	b.relTypes[rel].EdgeCount++
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{From: from, To: to, Rel: rel})
	return id
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build finalizes the graph: it computes per-type entity lists and
// hands the parts to Assemble, which adds the adjacency indexes and the
// schema-graph incidence lists. The builder must not be reused after
// Build.
func (b *Builder) Build() (*EntityGraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Per-type entity lists (sorted by construction order of ids).
	for ei := range b.entities {
		for _, t := range b.entities[ei].Types {
			b.types[t].Entities = append(b.types[t].Entities, EntityID(ei))
		}
	}
	return Assemble(Parts{
		Entities:     b.entities,
		Types:        b.types,
		RelTypes:     b.relTypes,
		Edges:        b.edges,
		EntityByName: b.entityByName,
		TypeByName:   b.typeByName,
	}, nil)
}

// Parts are the canonical pieces of an EntityGraph: everything but the
// indexes derived from them. IDs are positions: entity i is Entities[i],
// and so on.
type Parts struct {
	Entities     []Entity     // each Types list sorted
	Types        []EntityType // each Entities list sorted
	RelTypes     []RelType    // EdgeCount = edges of that type in Edges
	Edges        []Edge
	EntityByName map[string]EntityID
	TypeByName   map[string]TypeID
}

// Assemble finalizes canonical parts into an immutable EntityGraph: it
// checks that every entity has a type, then computes the entity
// adjacency and the schema-graph incidence lists. The graph takes the
// parts as they are, so the caller must never mutate them afterwards;
// they may be shared with other immutable graphs.
//
// If prev is non-nil and p carries prev's own edge slice (the same
// backing array and length) over the same number of entities, prev's
// adjacency is shared instead of recomputed: edges are immutable once
// assembled, so identical slices have identical adjacency.
func Assemble(p Parts, prev *EntityGraph) (*EntityGraph, error) {
	for i := range p.Entities {
		if len(p.Entities[i].Types) == 0 {
			return nil, fmt.Errorf("entity %q has no type", p.Entities[i].Name)
		}
	}
	g := &EntityGraph{
		entities:     p.Entities,
		types:        p.Types,
		relTypes:     p.RelTypes,
		edges:        p.Edges,
		entityByName: p.EntityByName,
		typeByName:   p.TypeByName,
	}
	if g.entityByName == nil {
		g.entityByName = map[string]EntityID{}
	}
	if g.typeByName == nil {
		g.typeByName = map[string]TypeID{}
	}

	if prev != nil && len(prev.entities) == len(g.entities) && sameEdges(prev.edges, g.edges) {
		g.out, g.in = prev.out, prev.in
	} else {
		g.out, g.in = adjacency(len(g.entities), g.edges)
	}

	// Schema incidence lists.
	g.schemaOut = make([][]RelTypeID, len(g.types))
	g.schemaIn = make([][]RelTypeID, len(g.types))
	for ri, rt := range g.relTypes {
		g.schemaOut[rt.From] = append(g.schemaOut[rt.From], RelTypeID(ri))
		g.schemaIn[rt.To] = append(g.schemaIn[rt.To], RelTypeID(ri))
	}
	return g, nil
}

// sameEdges reports whether a and b are the same slice: one backing
// array, one length.
func sameEdges(a, b []Edge) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// adjacency computes the per-entity outgoing and incoming edge lists in
// two passes — count, then fill — each from one backing array to keep
// the index compact.
func adjacency(n int, edges []Edge) (out, in [][]EdgeID) {
	outCount := make([]int32, n)
	inCount := make([]int32, n)
	for _, e := range edges {
		outCount[e.From]++
		inCount[e.To]++
	}
	out = make([][]EdgeID, n)
	in = make([][]EdgeID, n)
	outBacking := make([]EdgeID, len(edges))
	inBacking := make([]EdgeID, len(edges))
	var op, ip int32
	for i := 0; i < n; i++ {
		out[i] = outBacking[op : op : op+outCount[i]]
		op += outCount[i]
		in[i] = inBacking[ip : ip : ip+inCount[i]]
		ip += inCount[i]
	}
	for ei, e := range edges {
		out[e.From] = append(out[e.From], EdgeID(ei))
		in[e.To] = append(in[e.To], EdgeID(ei))
	}
	return out, in
}
