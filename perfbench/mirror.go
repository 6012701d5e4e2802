package main

// The trace mirror. Discovery, rendering, the live graph and the score
// refresh run inside the node, behind the one ServeHTTP span the
// benchmark can see from outside. The mirror replays the same work
// through the same public calls, timing each: the traced phase's cold
// reads on a static graph through the node's own Discoverer, and the
// acknowledged write batches, in epoch order, on a private live graph
// with its own maintained discovery state.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/render"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/service"
)

// mirrorResult holds per-call times, in µs unless noted.
type mirrorResult struct {
	discover, document, text, encode []float64
	apply, scores, freeze            []float64
	refresh, discoverAt              []float64
	computeMS                        []float64
	fullSearches, certServes         int64
	refreshesPerEpoch                float64
	reads                            int // mirrored reads that were rendered
}

// renderTimed renders pv the way the node does for q and records the
// render spans.
func (m *mirrorResult) renderTimed(tr *tracer, g *graph.EntityGraph, pv *core.Preview, q *query) {
	opts := render.Options{Tuples: q.tuples, Representative: q.rep, Rand: rand.New(rand.NewSource(1))}
	var buf bytes.Buffer
	if q.route == "preview" {
		var doc render.PreviewDoc
		m.document = append(m.document, tr.time(spanDocument, func() { doc = render.PreviewDocument(g, pv, opts) }))
		m.encode = append(m.encode, tr.time(spanEncode, func() {
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(doc) // a PreviewDoc always encodes
		}))
		return
	}
	m.text = append(m.text, tr.time(spanText, func() {
		if q.format == "markdown" {
			_ = render.MarkdownPreview(&buf, g, pv, opts) // writes to a buffer cannot fail
		} else {
			_ = render.Preview(&buf, g, pv, opts)
		}
	}))
}

// mirrorStatic replays the traced phase's first sights of discovering
// URLs — the reads that missed the response cache — through the node's
// own Discoverer, until budget runs out. It also times score.Compute,
// the precomputation a static graph pays at set-up.
func mirrorStatic(sys *system, tr *tracer, reads []*query, budget time.Duration) *mirrorResult {
	m := &mirrorResult{}
	for i := 0; i < 3; i++ {
		m.computeMS = append(m.computeMS, tr.time(spanScoreComp, func() {
			score.Compute(sys.base, score.DefaultWalkOptions())
		})/1e3)
	}
	deadline := time.Now().Add(budget)
	for _, q := range reads {
		if time.Now().After(deadline) {
			break
		}
		disc := sys.gr.Discoverer(q.key, q.nonKey)
		c := q.constraint()
		c.MaxCandidates = service.DefaultSearchBudget
		var (
			pv  core.Preview
			err error
		)
		m.discover = append(m.discover, tr.time(spanDiscover, func() { pv, err = disc.Discover(c) }))
		if err != nil {
			continue
		}
		m.renderTimed(tr, sys.gr.Entity(), &pv, q)
		m.reads++
	}
	return m
}

// mirrorLive replays every acknowledged batch in epoch order on a
// private copy of the workload's base graph. Batches before the traced
// phase only mutate; each traced batch is timed through AddEdge, Scores
// and the maintained discovery refresh, and followed by the reads
// issued at its epoch through DiscoverAt. Freezing and rendering — the
// costly part — are timed on an even sample of the traced batches so
// the mirror fits in budget.
func mirrorLive(sys *system, tr *tracer, acks []*ack, tracedFrom uint64, budget time.Duration) (*mirrorResult, error) {
	sort.Slice(acks, func(i, j int) bool { return acks[i].epoch < acks[j].epoch })
	for i, a := range acks {
		if a.epoch != uint64(i+1) {
			return nil, fmt.Errorf("acknowledged epochs are not contiguous: epoch %d at position %d", a.epoch, i)
		}
	}
	g, err := dynamic.FromEntityGraph(sys.base)
	if err != nil {
		return nil, err
	}
	walk := score.DefaultWalkOptions()
	if _, err := g.Scores(walk); err != nil {
		return nil, err
	}

	traced := 0
	for _, a := range acks {
		if a.epoch >= tracedFrom {
			traced++
		}
	}
	const maxFrozen = 24
	every := traced/maxFrozen + 1

	m := &mirrorResult{}
	maint := map[[2]int]*core.Maintained{}
	pending := map[[2]int]map[graph.TypeID]struct{}{}
	deadline := time.Now().Add(budget)
	refreshes, epochs := 0, 0
	for i, a := range acks {
		var doc batchDoc
		if err := json.Unmarshal(a.body, &doc); err != nil {
			return nil, err
		}
		timed := a.epoch >= tracedFrom && time.Now().Before(deadline)
		dirty := map[graph.TypeID]struct{}{}
		apply := func() {
			for _, e := range doc.Edges {
				ft, tt := g.Type(e.FromType), g.Type(e.ToType)
				rel, rerr := g.RelType(e.Rel, ft, tt)
				if rerr != nil {
					err = rerr
					return
				}
				if aerr := g.AddEdge(g.Entity(e.From, ft), g.Entity(e.To, tt), rel); aerr != nil {
					err = aerr
					return
				}
				dirty[ft], dirty[tt] = struct{}{}, struct{}{}
			}
		}
		if timed {
			m.apply = append(m.apply, tr.time(spanApply, apply))
		} else {
			apply()
		}
		if err != nil {
			return nil, err
		}
		for _, p := range pending {
			for t := range dirty {
				p[t] = struct{}{}
			}
		}
		if !timed {
			continue
		}
		var set *score.Set
		m.scores = append(m.scores, tr.time(spanScores, func() { set, err = g.Scores(walk) }))
		if err != nil {
			return nil, err
		}
		var frozen *graph.EntityGraph
		if i%every == 0 {
			m.freeze = append(m.freeze, tr.time(spanFreeze, func() { frozen, err = g.Freeze() }))
			if err != nil {
				return nil, err
			}
		}
		qs := a.reads
		if sys.router != nil {
			qs = sys.plan.reads
		}
		epochs++
		for _, q := range qs {
			if !q.discovers() {
				continue
			}
			pair := [2]int{int(q.key), int(q.nonKey)}
			mt := maint[pair]
			cold := mt == nil
			if cold {
				// The first refresh of a measure pair is a cold build, as on
				// the node at its first read; it is not a per-epoch cost,
				// and neither is the full search that follows it.
				mt = core.NewMaintained(core.Options{Key: q.key, NonKey: q.nonKey})
				mt.Refresh(set, a.epoch, nil, true)
				maint[pair], pending[pair] = mt, map[graph.TypeID]struct{}{}
			} else if e, _ := mt.Epoch(); e < a.epoch {
				ts := make([]graph.TypeID, 0, len(pending[pair]))
				for t := range pending[pair] {
					ts = append(ts, t)
				}
				sort.Slice(ts, func(x, y int) bool { return ts[x] < ts[y] })
				m.refresh = append(m.refresh, tr.time(spanRefresh, func() { mt.Refresh(set, a.epoch, ts, false) }))
				pending[pair] = map[graph.TypeID]struct{}{}
				refreshes++
			}
			f0, c0 := mt.FullSearches(), mt.CertServes()
			c := q.constraint()
			c.MaxCandidates = service.DefaultSearchBudget
			var pv core.Preview
			var derr error
			d := tr.time(spanDiscAt, func() { pv, derr = mt.DiscoverAt(a.epoch, c) })
			if !cold {
				m.discoverAt = append(m.discoverAt, d)
				m.fullSearches += mt.FullSearches() - f0
				m.certServes += mt.CertServes() - c0
			}
			if derr != nil || frozen == nil {
				continue
			}
			m.renderTimed(tr, frozen, &pv, q)
			m.reads++
		}
	}
	m.refreshesPerEpoch = ratio(float64(refreshes), float64(epochs))
	return m, nil
}
