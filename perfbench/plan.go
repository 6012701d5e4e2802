package main

import (
	"encoding/json"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// query is one read request's parameters, kept in structured form so
// the checks and the trace mirror need not parse URLs back.
type query struct {
	route   string // list, stats, preview or render
	format  string // render only: text or markdown
	k, n, d int
	mode    core.Mode
	key     score.KeyMeasure
	nonKey  score.NonKeyMeasure
	tuples  int
	rep     bool
	anytime bool
}

// path spells q as the request path the service parses.
func (q *query) path(graphName string) string {
	switch q.route {
	case "list":
		return "/v1/graphs"
	case "stats":
		return "/v1/graphs/" + graphName + "/stats"
	}
	v := url.Values{}
	v.Set("k", strconv.Itoa(q.k))
	v.Set("n", strconv.Itoa(q.n))
	v.Set("mode", strings.ToLower(q.mode.String()))
	v.Set("d", strconv.Itoa(q.d))
	v.Set("key", map[score.KeyMeasure]string{score.KeyCoverage: "coverage", score.KeyRandomWalk: "walk"}[q.key])
	v.Set("nonkey", map[score.NonKeyMeasure]string{score.NonKeyCoverage: "coverage", score.NonKeyEntropy: "entropy"}[q.nonKey])
	if q.tuples > 0 {
		v.Set("tuples", strconv.Itoa(q.tuples))
	}
	if q.rep {
		v.Set("rep", "1")
	}
	if q.anytime {
		v.Set("anytime", "1")
	}
	if q.route == "render" {
		v.Set("format", q.format)
	}
	return "/v1/graphs/" + graphName + "/" + q.route + "?" + v.Encode()
}

// discovers reports whether serving q runs preview discovery.
func (q *query) discovers() bool { return q.route == "preview" || q.route == "render" }

func (q *query) constraint() core.Constraint {
	return core.Constraint{K: q.k, N: q.n, Mode: q.mode, D: q.d}
}

// op is one client operation.
type op struct {
	write  bool
	path   string
	body   []byte
	q      *query // nil for writes
	inm    bool   // replay the client's last ETag for path as If-None-Match
	sample bool   // byte-compare the reply against the reference
}

var measurePairs = [4][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}

func measures(i int) (score.KeyMeasure, score.NonKeyMeasure) {
	km, nm := score.KeyCoverage, score.NonKeyCoverage
	if measurePairs[i][0] == 1 {
		km = score.KeyRandomWalk
	}
	if measurePairs[i][1] == 1 {
		nm = score.NonKeyEntropy
	}
	return km, nm
}

// plan is a workload's request vocabulary, fixed by its graph. Each
// client draws its operations from the plan with its own seeded PRNG,
// so the operation sequence is a pure function of (workload, seed).
type plan struct {
	workload string
	graph    string
	reads    []*query // browse: the hot set; ingest and routed: the read set
	batches  *batcher // nil for read-only workloads

	edgesPerBatch int     // ingest and routed
	writeEvery    int     // routed: one write per this many operations
	readsPerWrite int     // ingest: reads after each write
	inmShare      float64 // share of reads that replay an ETag
	sampleShare   float64 // share of reads byte-compared beyond first sights
}

// Workload sizes and shares. The explore universe is at least ten
// times the response cache's capacity of 4096 entries (see
// exploreUniverse).
const (
	ingestEdges   = 16
	ingestReads   = 3
	routedEvery   = 64
	routedEdges   = 4
	browseINM     = 0.25
	routedINM     = 0.25
	browseSample  = 0.0005
	exploreSample = 0.01
	ingestSample  = 0.10
	routedSample  = 0.02
)

// browseReads is the browse hot set: the listing, stats, previews in
// every mode and measure pair, text and markdown renders, and anytime
// previews — 64 URLs, far below the cache's capacity.
func browseReads() []*query {
	qs := []*query{{route: "list"}, {route: "stats"}}
	shapes := []query{
		{k: 3, n: 6, mode: core.Concise, d: 2},
		{k: 2, n: 4, mode: core.Tight, d: 2},
		{k: 2, n: 4, mode: core.Diverse, d: 2},
	}
	for _, sh := range shapes {
		for m := 0; m < 4; m++ {
			for _, tuples := range []int{0, 3} {
				q := sh
				q.route, q.tuples = "preview", tuples
				q.key, q.nonKey = measures(m)
				qs = append(qs, &q)
			}
			q := sh
			q.route, q.anytime = "preview", true
			q.key, q.nonKey = measures(m)
			qs = append(qs, &q)
		}
		for _, m := range []int{0, 3} {
			for _, format := range []string{"text", "markdown"} {
				q := sh
				q.route, q.format, q.tuples = "render", format, 2
				q.key, q.nonKey = measures(m)
				qs = append(qs, &q)
			}
		}
	}
	for m := 0; m < 4; m++ {
		q := query{route: "preview", k: 2, n: 3, mode: core.Concise, d: 2, tuples: 2, rep: true}
		q.key, q.nonKey = measures(m)
		qs = append(qs, &q)
	}
	for _, format := range []string{"text", "markdown"} {
		qs = append(qs, &query{route: "render", format: format, k: 4, n: 8, mode: core.Concise, d: 2, tuples: 3, rep: true})
	}
	for m := 0; m < 4; m++ {
		for _, sh := range []query{{k: 4, n: 8, mode: core.Concise, d: 2}, {k: 3, n: 6, mode: core.Tight, d: 2}} {
			q := sh
			q.route = "preview"
			q.key, q.nonKey = measures(m)
			qs = append(qs, &q)
		}
	}
	return qs
}

// exploreConstraints lists the (mode, k, n, d) combinations of the
// explore universe. Tight and diverse stay at k ≤ 3, and tight at d ≥ 1,
// which keeps every request feasible and within the search budget on
// the generated music graph.
func exploreConstraints() []query {
	var out []query
	for _, mode := range []core.Mode{core.Concise, core.Tight, core.Diverse} {
		maxK, minD := 5, 0
		if mode != core.Concise {
			maxK = 3
		}
		if mode == core.Tight {
			minD = 1
		}
		for k := 1; k <= maxK; k++ {
			for extra := 0; extra < 8; extra++ {
				for d := minD; d <= 3; d++ {
					out = append(out, query{mode: mode, k: k, n: k + extra, d: d})
				}
			}
		}
	}
	return out
}

// exploreSamples are the (tuples, rep) pairs of the explore universe:
// random samples of 0 to 9 tuples, and one representative sample.
// Representative sampling costs ten times a random one on this graph,
// so it gets one variant in eleven rather than half the universe.
var exploreSamples = [][2]int{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0}, {7, 0}, {8, 0}, {9, 0}, {2, 1}}

var exploreRoutes = [][2]string{{"preview", ""}, {"render", "text"}, {"render", "markdown"}}

// exploreVariants is how many URLs each constraint spells: measure
// pairs × samples × route/format.
var exploreVariants = 4 * len(exploreSamples) * len(exploreRoutes)

// exploreUniverse returns the size of the explore URL universe and the
// function mapping an index in [0, size) to its query; indices map to
// distinct cache keys, so drawing indices uniformly draws URLs
// uniformly.
func exploreUniverse() (int, func(i int) *query) {
	cons := exploreConstraints()
	return len(cons) * exploreVariants, func(i int) *query {
		q := cons[i/exploreVariants]
		r := i % exploreVariants
		q.key, q.nonKey = measures(r % 4)
		r /= 4
		s := exploreSamples[r%len(exploreSamples)]
		q.tuples, q.rep = s[0], s[1] == 1
		r /= len(exploreSamples)
		q.route, q.format = exploreRoutes[r][0], exploreRoutes[r][1]
		return &q
	}
}

// ingestReadSet is what an ingest client reads after each write: three
// of these, drawn per write.
func ingestReadSet() []*query {
	return []*query{
		{route: "preview", k: 3, n: 6, mode: core.Concise, d: 2},
		{route: "preview", k: 3, n: 6, mode: core.Concise, d: 2, key: score.KeyRandomWalk, nonKey: score.NonKeyEntropy, tuples: 3},
		{route: "preview", k: 2, n: 4, mode: core.Tight, d: 2, nonKey: score.NonKeyEntropy},
		{route: "preview", k: 2, n: 4, mode: core.Diverse, d: 2, key: score.KeyRandomWalk},
		{route: "preview", k: 2, n: 3, mode: core.Concise, d: 2, tuples: 2, rep: true},
		{route: "render", format: "markdown", k: 2, n: 4, mode: core.Concise, d: 2, tuples: 2},
		{route: "render", format: "text", k: 3, n: 6, mode: core.Concise, d: 2, nonKey: score.NonKeyEntropy, tuples: 3},
		{route: "render", format: "markdown", k: 2, n: 4, mode: core.Tight, d: 2, key: score.KeyRandomWalk, tuples: 2},
	}
}

// routedReadSet is the routed workload's cached read mix on the fig1
// graph.
func routedReadSet() []*query {
	return []*query{
		{route: "stats"},
		{route: "preview", k: 2, n: 3, mode: core.Concise, d: 2, tuples: 3},
		{route: "preview", k: 3, n: 6, mode: core.Concise, d: 2, nonKey: score.NonKeyEntropy, tuples: 2},
		{route: "preview", k: 2, n: 3, mode: core.Concise, d: 2, key: score.KeyRandomWalk},
		{route: "preview", k: 2, n: 3, mode: core.Tight, d: 2},
		{route: "preview", k: 2, n: 3, mode: core.Diverse, d: 2},
		{route: "render", format: "markdown", k: 2, n: 3, mode: core.Concise, d: 2, tuples: 3},
		{route: "render", format: "text", k: 3, n: 6, mode: core.Concise, d: 2, key: score.KeyRandomWalk, nonKey: score.NonKeyEntropy, tuples: 2},
	}
}

// stream is one client's operation sequence.
type stream struct {
	p   *plan
	rng *rand.Rand
	i   int

	universe int
	pick     func(int) *query
}

// stream returns client's operation sequence under seed.
func (p *plan) stream(seed int64, client int) *stream {
	h := int64(0)
	for _, c := range p.workload {
		h = h*131 + int64(c)
	}
	s := &stream{p: p, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7_919 + h))}
	if p.workload == "explore" {
		s.universe, s.pick = exploreUniverse()
	}
	return s
}

func (s *stream) next() op {
	i := s.i
	s.i++
	p := s.p
	switch p.workload {
	case "explore":
		q := s.pick(s.rng.Intn(s.universe))
		return op{path: q.path(p.graph), q: q, sample: s.rng.Float64() < p.sampleShare}
	case "ingest":
		if i%(p.readsPerWrite+1) == 0 {
			return s.write()
		}
	case "routed":
		if i%p.writeEvery == p.writeEvery-1 {
			return s.write()
		}
	}
	q := p.reads[s.rng.Intn(len(p.reads))]
	return op{path: q.path(p.graph), q: q,
		inm:    s.rng.Float64() < p.inmShare,
		sample: s.rng.Float64() < p.sampleShare}
}

func (s *stream) write() op {
	return op{write: true, path: "/v1/graphs/" + s.p.graph + "/edges",
		body: s.p.batches.body(s.rng, s.p.edgesPerBatch)}
}

// batcher synthesizes write batches from the base graph's own edges:
// each edge of a batch repeats one the graph already has. A batch is
// still a real mutation — a new epoch, higher edge and relationship
// counts, and dirty endpoint types for the maintained search — but it
// adds no value-set entry, and Freeze collapses parallel edges, so the
// frozen graph, the heap and the Freeze cost stay the same however many
// batches a run applies. Only the live edge counter grows.
type batcher struct{ g *graph.EntityGraph }

func newBatcher(g *graph.EntityGraph) *batcher { return &batcher{g: g} }

type edgeDoc struct {
	From     string `json:"from"`
	Rel      string `json:"rel"`
	FromType string `json:"from_type"`
	ToType   string `json:"to_type"`
	To       string `json:"to"`
}

type batchDoc struct {
	Edges []edgeDoc `json:"edges"`
}

func (b *batcher) body(rng *rand.Rand, n int) []byte {
	g := b.g
	doc := batchDoc{Edges: make([]edgeDoc, n)}
	for j := range doc.Edges {
		ed := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
		rt := g.RelType(ed.Rel)
		doc.Edges[j] = edgeDoc{
			From:     g.EntityName(ed.From),
			Rel:      rt.Name,
			FromType: g.TypeName(rt.From),
			ToType:   g.TypeName(rt.To),
			To:       g.EntityName(ed.To),
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		panic(err) // a batchDoc of strings always encodes
	}
	return raw
}
