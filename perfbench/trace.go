package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A span is recorded by the benchmark's own code around a
// call into one layer's public entry point; spans inside the program
// itself do not exist yet.
const (
	spanOp        = "client.op"       // one client operation, send to last body byte
	spanRoute     = "fleet.route"     // Router.ServeHTTP, via a handler wrapper
	spanServe     = "service.serve"   // a node's Server.ServeHTTP, via a handler wrapper
	spanWAL       = "storage.wal"     // WAL.Append inside the live graph's durability hook
	spanApply     = "dynamic.apply"   // mirror: one batch through Graph.AddEdge
	spanScores    = "score.refresh"   // mirror: dynamic.Graph.Scores
	spanFreeze    = "dynamic.freeze"  // mirror: dynamic.Graph.Freeze
	spanRefresh   = "core.refresh"    // mirror: core.Maintained.Refresh
	spanDiscAt    = "core.discoverat" // mirror: core.Maintained.DiscoverAt
	spanDiscover  = "core.discover"   // mirror: core.Discoverer.Discover
	spanDocument  = "render.document" // mirror: render.PreviewDocument
	spanText      = "render.text"     // mirror: render.Preview / MarkdownPreview
	spanEncode    = "render.encode"   // mirror: JSON encoding of the preview document
	spanScoreComp = "score.compute"   // mirror: score.Compute over the static graph
)

// Request tags. The client stamps every traced request with its
// operation's span id; the router wrapper re-stamps the parent header
// with its own span id before the router clones the headers onto the
// backend request, which is how a node span finds its parent across
// the hop.
const (
	reqHeader    = "X-Perfbench-Req"
	parentHeader = "X-Perfbench-Parent"
	checkHeader  = "X-Perfbench-Check"
)

// span is one timed interval. Req is the id of the client operation
// the span belongs to (0 for mirror spans, which replay work outside
// any request); Epoch links a durability-hook span to the write that
// created the epoch.
type span struct {
	ID, Parent, Req, Epoch uint64
	Name                   string
	Node                   string // serve spans: the node; op spans: read or write
	Start, End             int64  // ns since the tracer's origin
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// maxSpans bounds the in-memory trace. Once it is full, clients stop
// tagging new operations, so every traced operation has its full
// span tree.
const maxSpans = 300_000

// tracer records spans in memory while on; the trace is written out
// when the run ends.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	ids    atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.origin)) }
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// active reports whether a new operation should be traced.
func (t *tracer) active() bool {
	if t == nil || !t.on.Load() {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) < maxSpans
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// time runs fn as a mirror span and returns its duration in µs.
func (t *tracer) time(name string, fn func()) float64 {
	s := t.now()
	fn()
	e := t.now()
	t.add(span{ID: t.newID(), Name: name, Start: s, End: e})
	return float64(e-s) / 1e3
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the trace as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tags are the trace and check headers of one request.
type tags struct {
	req, parent uint64
	check       uint64 // links a checked request to the node that served it
}

func (g tags) apply(h map[string][]string) {
	if g.req != 0 {
		h[reqHeader] = []string{strconv.FormatUint(g.req, 10)}
		h[parentHeader] = []string{strconv.FormatUint(g.parent, 10)}
	}
	if g.check != 0 {
		h[checkHeader] = []string{strconv.FormatUint(g.check, 10)}
	}
}

func headerID(h map[string][]string, name string) uint64 {
	v := h[name]
	if len(v) == 0 {
		return 0
	}
	id, _ := strconv.ParseUint(v[0], 10, 64)
	return id
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, keyed by span id. Children of one span never overlap
// here (each layer calls the next synchronously), so the covered part is
// the sum of the children's durations clipped to the parent.
func selfTimes(spans []span) map[uint64]float64 {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := make(map[uint64]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				self[p.ID] -= float64(hi - lo)
			}
		}
	}
	return self
}

// traceFile is where a traced run of workload writes its spans. Each
// run replaces the previous one's file, which bounds the disk the
// traces take (a browse trace is tens of MB); the report names the seed.
func traceFile(dir, workload string) string {
	return filepath.Join(dir, "traces", workload+".jsonl")
}
