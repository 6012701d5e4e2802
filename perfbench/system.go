package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/fleet"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/service"
)

const (
	musicName     = "music"
	musicEntities = 30_000
	fig1Name      = "fig1"
	cacheCapacity = 4096 // the service's per-view response cache bound
	numClients    = 2
	// probeInterval is shorter than cmd/previewrouter's default of 2 s.
	// The router spreads reads to the follower only while its last probe
	// saw it caught up, so each probe that lands mid-apply sends every read
	// to the leader until the next one. At 2 s a 20-s run holds about ten
	// probes, and how many of them land mid-apply swings the read mix and
	// the figures from run to run: over ten seeds read_per_s varied by 23%
	// and read_p99_ms by 42% (quartile distance over median), against 10%
	// and 7% at 100 ms in the ten runs that followed. Every other router
	// option, the failure threshold included, is the default.
	probeInterval = 100 * time.Millisecond
)

// system is one workload's system under test, fully set up and warm.
type system struct {
	plan   *plan
	target target
	base   *graph.EntityGraph
	gr     *service.Graph // the workload graph on the node that takes writes
	static bool

	// ref is a second Server with NoCache over the node's registry: the
	// byte reference for every output check. refFollower is the same for
	// the routed follower.
	ref, refFollower http.Handler
	servers          []*service.Server // every node Server, for cache counters

	walDir string // the writable node's WAL, for its size on disk

	// routed only
	served   *sync.Map // check id → node that served the request
	router   *fleet.Router
	follower *service.Follower
	backends []*listener
	applies  *applyLog

	sizes   sizes
	closers []func()
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// sizes records what a result was measured on.
type sizes struct {
	Entities, Edges, Types int
	CacheCapacity          int    `json:",omitempty"`
	WorkingSet             int    `json:",omitempty"`
	Fsync                  string // WAL sync policy
	Clients                int
	Loop                   string
}

// setupTimes splits one set-up into its phases, in seconds.
type setupTimes struct {
	generate, recover, warm float64
}

func (t setupTimes) total() float64 { return t.generate + t.recover + t.warm }

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func musicGraph() (*graph.EntityGraph, error) {
	opts := freebase.DefaultGenOptions()
	opts.TargetEntities = musicEntities
	return freebase.Generate(musicName, opts)
}

// newPlan builds the workload's request vocabulary from its graph.
func newPlan(workload string, g *graph.EntityGraph) *plan {
	p := &plan{workload: workload, graph: musicName}
	switch workload {
	case "browse":
		p.reads, p.inmShare, p.sampleShare = browseReads(), browseINM, browseSample
	case "explore":
		p.sampleShare = exploreSample
	case "ingest":
		p.reads, p.sampleShare = ingestReadSet(), ingestSample
		p.batches, p.edgesPerBatch, p.readsPerWrite = newBatcher(g), ingestEdges, ingestReads
	case "routed":
		p.graph = fig1Name
		p.reads, p.inmShare, p.sampleShare = routedReadSet(), routedINM, routedSample
		p.batches, p.edgesPerBatch, p.writeEvery = newBatcher(g), routedEdges, routedEvery
	}
	return p
}

// baseGraph generates the workload's graph.
func baseGraph(workload string) (*graph.EntityGraph, error) {
	if workload == "routed" {
		return fig1.Graph(), nil
	}
	return musicGraph()
}

// setup builds the workload's system from scratch: generate its graph,
// register or recover it, and warm it up to the first timed operation.
func setup(workload string, e *env, rep int) (*system, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	g, err := baseGraph(workload)
	if err != nil {
		return nil, st, err
	}
	st.generate = since(t0)
	sys := &system{plan: newPlan(workload, g), base: g}
	sys.sizes = sizes{Clients: numClients, Loop: "closed", Fsync: "none"}

	t1 := time.Now()
	switch workload {
	case "browse", "explore":
		err = sys.registerStatic(e)
	case "ingest":
		err = sys.recoverIngest(e, rep)
	case "routed":
		err = sys.startFleet(e, rep)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		sys.close()
		return nil, st, err
	}
	st.recover = since(t1)

	t2 := time.Now()
	if err := sys.warm(); err != nil {
		sys.close()
		return nil, st, fmt.Errorf("warming %s: %w", workload, err)
	}
	st.warm = since(t2)
	stats := sys.gr.Stats()
	sys.sizes.Entities, sys.sizes.Edges, sys.sizes.Types = stats.Entities, stats.Edges, stats.Types
	return sys, st, nil
}

// servers returns a node's Server over reg and its byte reference: a
// second Server over the same registry with the response cache off.
func servers(reg *service.Registry) (srv, ref *service.Server) {
	srv, ref = service.New(reg), service.New(reg)
	ref.NoCache = true
	return srv, ref
}

func (s *system) registerStatic(e *env) error {
	reg := service.NewRegistry()
	if err := reg.Add(musicName, s.base); err != nil {
		return err
	}
	s.static = true
	s.gr, _ = reg.Get(musicName)
	srv, ref := servers(reg)
	s.ref, s.servers = ref, []*service.Server{srv}
	s.target = handlerTarget{&nodeHandler{name: "node", h: srv, tr: e.tr}}
	s.sizes.CacheCapacity = cacheCapacity
	if s.plan.workload == "browse" {
		s.sizes.WorkingSet = len(s.plan.reads)
	} else {
		s.sizes.WorkingSet, _ = exploreUniverse()
	}
	return nil
}

// durableNode recovers the workload graph from an empty WAL in walDir,
// registers it in reg with one WAL fsync per batch — the serving
// default — and returns the node's Server and its byte reference.
func (s *system) durableNode(e *env, reg *service.Registry, name, walDir string) (srv, ref *service.Server, err error) {
	rec, err := service.RecoverLive(s.base, name, "", walDir, score.DefaultWalkOptions())
	if err != nil {
		return nil, nil, err
	}
	s.closers = append(s.closers, func() { rec.WAL.Close() })
	if err := reg.AddLive(name, rec.Live, service.WithDurability(rec.WAL), service.WithOrigin(rec.Origin, rec.OriginEpoch)); err != nil {
		return nil, nil, err
	}
	if e.tr != nil {
		traceWAL(rec.Live, rec.WAL, e.tr)
	}
	s.gr, _ = reg.Get(name)
	s.walDir = walDir
	s.sizes.Fsync = "every batch"
	srv, ref = servers(reg)
	return srv, ref, nil
}

func (s *system) recoverIngest(e *env, rep int) error {
	dir := filepath.Join(e.dir, fmt.Sprintf("ingest-%d", rep))
	s.closers = append(s.closers, func() { os.RemoveAll(dir) })
	reg := service.NewRegistry()
	srv, ref, err := s.durableNode(e, reg, musicName, filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	s.ref, s.servers = ref, []*service.Server{srv}
	s.target = handlerTarget{&nodeHandler{name: "node", h: srv, tr: e.tr}}
	return nil
}

// startFleet boots the routed topology over loopback: a durable fig1
// leader, a router fronting it as the only shard, and a durable
// follower that tails the leader through the router. The router keeps
// its default failure threshold; the workload must not depend on
// failover, so a run in which the router fails over counts as failed.
func (s *system) startFleet(e *env, rep int) error {
	root := filepath.Join(e.dir, fmt.Sprintf("routed-%d", rep))
	s.closers = append(s.closers, func() { os.RemoveAll(root) })

	lreg := service.NewRegistry()
	if err := lreg.EnableFencing(filepath.Join(root, "leader")); err != nil {
		return err
	}
	lsrv, lref, err := s.durableNode(e, lreg, fig1Name, filepath.Join(root, "leader", fig1Name))
	if err != nil {
		return err
	}
	s.served = &sync.Map{}
	leader := listen(&nodeHandler{name: "leader", h: lsrv, tr: e.tr, served: s.served})
	s.closers = append(s.closers, leader.ts.Close)

	rt, err := fleet.NewRouter([]fleet.ShardSpec{{ID: "s1", Leader: leader.ts.URL}}, fleet.RouterOptions{})
	if err != nil {
		return err
	}
	s.router = rt
	router := listen(&routeHandler{h: rt, tr: e.tr})
	s.closers = append(s.closers, router.ts.Close)
	rt.ProbeAll()

	fdir := filepath.Join(root, "follower")
	freg := service.NewRegistry()
	if err := freg.EnableFencing(filepath.Join(fdir, "wal")); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(fdir, "ckpt"), 0o755); err != nil {
		return err
	}
	s.applies = &applyLog{at: map[uint64]time.Time{}}
	f, err := service.StartFollower(freg, fig1Name, service.FollowerOptions{
		Leader:        router.ts.URL,
		Walk:          score.DefaultWalkOptions(),
		CheckpointDir: filepath.Join(fdir, "ckpt"),
		WALRoot:       filepath.Join(fdir, "wal"),
		Wait:          time.Second,
		OnApply:       s.applies.note,
	})
	if err != nil {
		return err
	}
	s.follower = f
	s.closers = append(s.closers, f.Stop)
	fsrv, fref := servers(freg)
	follower := listen(&nodeHandler{name: "follower", h: fsrv, tr: e.tr, served: s.served})
	s.closers = append(s.closers, follower.ts.Close)
	if err := rt.AddFollower("s1", follower.ts.URL); err != nil {
		return err
	}
	rt.ProbeAll()
	rt.Start(probeInterval)
	s.closers = append(s.closers, rt.Stop)

	ht := newHTTPTarget(router.ts.URL, numClients)
	s.closers = append(s.closers, ht.close)
	s.target = ht
	s.ref, s.refFollower = lref, fref
	s.servers = []*service.Server{lsrv, fsrv}
	s.backends = []*listener{leader, follower}
	return nil
}

// warm issues the requests a deployment would have served before the
// first timed operation: every read of the browse hot set (waiting for
// anytime refinement to converge), one discovery per measure pair for
// explore, and the read set of ingest and routed.
func (s *system) warm() error {
	get := func(q *query) ([]byte, error) {
		resp, err := s.target.do(http.MethodGet, q.path(s.plan.graph), nil, "", tags{})
		if err != nil {
			return nil, err
		}
		if resp.status != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", q.path(s.plan.graph), resp.status, clip(resp.body))
		}
		return resp.body, nil
	}
	var qs []*query
	switch s.plan.workload {
	case "explore":
		for m := 0; m < 4; m++ {
			q := &query{route: "preview", k: 1, n: 9, mode: 0, d: 0}
			q.key, q.nonKey = measures(m)
			qs = append(qs, q)
		}
	default:
		qs = s.plan.reads
	}
	for _, q := range qs {
		if _, err := get(q); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, q := range qs {
		for q.anytime {
			body, err := get(q)
			if err != nil {
				return err
			}
			if bytes.Contains(body, []byte(`"converged":true`)) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never converged", q.path(s.plan.graph))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if s.router != nil {
		if err := s.follower.WaitCaughtUp(s.gr.Live().Snapshot().Epoch, 10*time.Second); err != nil {
			return err
		}
		s.router.ProbeAll()
	}
	return nil
}

// viewEpoch returns the epoch h currently serves for the workload
// graph, read from its stats document.
func (s *system) viewEpoch(h http.Handler) (uint64, error) {
	resp, err := handlerTarget{h}.do(http.MethodGet, "/v1/graphs/"+s.plan.graph+"/stats", nil, "", tags{})
	if err != nil {
		return 0, err
	}
	var doc struct {
		Epoch *uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(resp.body, &doc); err != nil || doc.Epoch == nil {
		return 0, fmt.Errorf("stats without an epoch: %s", clip(resp.body))
	}
	return *doc.Epoch, nil
}

// cacheStats sums the response-cache counters of every node.
func (s *system) cacheStats() (hits, misses uint64) {
	for _, srv := range s.servers {
		h, m := srv.CacheStats()
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

// backendConns counts TCP connections the backends have accepted.
func (s *system) backendConns() int64 {
	var n int64
	for _, l := range s.backends {
		n += l.conns.Load()
	}
	return n
}

// walBytes is the size of the node's WAL segments on disk.
func (s *system) walBytes() int64 {
	var n int64
	ents, _ := os.ReadDir(s.walDir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && filepath.Ext(e.Name()) == ".wal" {
			n += info.Size()
		}
	}
	return n
}

// applyLog records when the follower published each epoch.
type applyLog struct {
	mu sync.Mutex
	at map[uint64]time.Time
}

func (a *applyLog) note(epoch uint64) {
	a.mu.Lock()
	a.at[epoch] = time.Now()
	a.mu.Unlock()
}

func (a *applyLog) get(epoch uint64) (time.Time, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.at[epoch]
	return t, ok
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}
