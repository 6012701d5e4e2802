package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// workloadSpec records why a workload exists and which layers it
// stresses and bypasses, in the one line BENCHMARK.json carries.
type workloadSpec struct{ name, why string }

var workloads = []workloadSpec{
	{"browse", "64 hot reads of a static 30k-entity graph, a share replaying ETags: the response-cache hit path. Stresses service; bypasses core, render, dynamic, storage, fleet"},
	{"explore", "uniform reads over 43k URLs varying k, n, mode, d, measures, tuples and format: cold search and render. Stresses core, render, service; bypasses dynamic, storage, fleet"},
	{"ingest", "16-edge durable writes to a 30k-entity graph, each followed by 3 reads at the new epoch. Stresses dynamic, score, storage, core.Maintained; bypasses fleet"},
	{"routed", "cached reads plus one write per 64 ops through the fleet router over loopback, one tailing follower. Stresses fleet, repl, storage; core and dynamic barely"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec is one reported metric. moves names the end-to-end metric
// a per-layer metric should move and the workload it shows on, and the
// workload that bypasses the layer, where the prediction is no change.
type metricSpec struct {
	name, unit, better string // better is "lower" when empty
	bound              float64
	moves              string
}

func (sp metricSpec) direction() string {
	if sp.better == "" {
		return "lower"
	}
	return sp.better
}

// endToEndSpecs are the metrics of untraced runs: what a user of the
// service sees on every workload.
//
// The bounds are wide because the reference machine is: on its shared
// 2-vCPU VM a fixed CPU loop's rate varies by ±20% between 8-second
// windows, and the timing metrics inherit that spread.
var endToEndSpecs = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "read_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "read_per_s", unit: "reads/s", better: "higher", bound: 0.25},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.15},
}

// opSpecs are end-to-end figures that only some workloads have: writes
// (ingest, routed), replica lag (routed) and the failure share (0 on a
// correct run). Untraced runs report them on their '#' lines; traced
// runs carry them as metrics, measured in the untraced half.
var opSpecs = []metricSpec{
	{name: "write_p50_ms", unit: "ms", moves: "end to end on ingest, routed"},
	{name: "write_p90_ms", unit: "ms", moves: "end to end on ingest, routed"},
	{name: "replica_lag_p50_ms", unit: "ms", moves: "end to end on routed: leader ack to follower publish"},
	{name: "replica_lag_p90_ms", unit: "ms", moves: "end to end on routed"},
	{name: "fail_frac", unit: "ratio", moves: "end to end on all: failed or wrong ops / attempted"},
}

// perLayerSpecs are the metrics of traced runs, each with its
// prediction link. A layer a workload does not run reports 0.
var perLayerSpecs = append([]metricSpec{
	{name: "service.serve_us", unit: "us", moves: "read_p50_ms, read_per_s on browse; every workload serves, barely visible on ingest"},
	{name: "service.serve_p99_us", unit: "us", moves: "read_p99_ms on browse"},
	{name: "service.hit_ratio", unit: "ratio", better: "higher", moves: "read_p50_ms on browse"},
	{name: "service.not_modified_ratio", unit: "ratio", better: "higher", moves: "read_p50_ms on browse"},
	{name: "service.allocs_per_read", unit: "allocs", moves: "read_p50_ms on browse"},
	{name: "core.discover_us", unit: "us", moves: "read_p50_ms, read_p99_ms on explore; bypass browse"},
	{name: "core.refresh_us", unit: "us", moves: "read_p50_ms, read_p99_ms on ingest; bypass browse, explore"},
	{name: "core.discover_at_us", unit: "us", moves: "read_p50_ms, read_p99_ms on ingest; bypass browse, explore"},
	{name: "core.full_search_ratio", unit: "ratio", moves: "read_p99_ms on ingest; bypass browse, explore"},
	{name: "render.document_us", unit: "us", moves: "read_p50_ms on explore; bypass browse"},
	{name: "render.text_us", unit: "us", moves: "read_p50_ms on explore; bypass browse"},
	{name: "render.encode_us", unit: "us", moves: "read_p50_ms on explore; bypass browse"},
	{name: "dynamic.apply_us", unit: "us", moves: "write_p50_ms, write_p90_ms on ingest; bypass browse, explore"},
	{name: "dynamic.freeze_us", unit: "us", moves: "write_p50_ms, write_p90_ms, heap_live_mb on ingest; bypass browse, explore"},
	{name: "score.refresh_us", unit: "us", moves: "write_p50_ms on ingest; bypass browse, explore"},
	{name: "score.compute_ms", unit: "ms", moves: "setup_s on browse, explore"},
	{name: "storage.wal_append_us", unit: "us", moves: "write_p50_ms on ingest, routed; bypass browse, explore"},
	{name: "storage.wal_bytes_per_write", unit: "B", moves: "write_p50_ms on ingest, routed; bypass browse, explore"},
	{name: "fleet.proxy_us", unit: "us", moves: "read_p50_ms, read_per_s on routed; bypass browse, explore, ingest"},
	{name: "fleet.follower_share", unit: "ratio", better: "higher", moves: "read_p50_ms, read_per_s on routed; bypass browse, explore, ingest"},
	{name: "fleet.conns_per_kreq", unit: "1/kreq", moves: "read_p50_ms, read_per_s on routed; bypass browse, explore, ingest"},
	{name: "repl.resyncs", unit: "count", moves: "replica_lag_p50_ms on routed"},
	{name: "repl.bootstraps", unit: "count", moves: "replica_lag_p50_ms on routed"},
	{name: "repl.apply_us", unit: "us", moves: "replica_lag_p50_ms on routed"},
	{name: "setup.generate_s", unit: "s", moves: "setup_s"},
	{name: "setup.recover_s", unit: "s", moves: "setup_s"},
	{name: "setup.warm_s", unit: "s", moves: "setup_s"},
	{name: "trace.overhead_pct", unit: "%", moves: ""},
	{name: "trace.residual_us", unit: "us", moves: ""},
}, opSpecs...)

// measured is one metric value with what the report says about it.
type measured struct {
	Value     float64
	n, beyond int
	note      string
}

type metricSet map[string]measured

// endToEnd computes the end-to-end figures of an untraced phase.
func (r *runner) endToEnd(pr *phaseResult, times []setupTimes) metricSet {
	m := metricSet{}
	var totals []float64
	for _, t := range times {
		totals = append(totals, t.total())
	}
	m["setup_s"] = measured{Value: median(totals), n: len(totals), note: "median of the set-ups"}
	// The median and the rate are medians over the phase's windows. The
	// p99 is taken over every read: a window holds too few reads on
	// explore and ingest for ten of them to lie beyond its 99th percentile.
	reads := pr.allReads().summary()
	p50s, rates := pr.windowStats()
	m["read_p50_ms"] = measured{Value: median(p50s), n: reads.N,
		note: fmt.Sprintf("median of %d windows' p50s %s; p50 of every read %.6g", len(p50s), fmtList(p50s), reads.P50)}
	m["read_p99_ms"] = measured{Value: reads.P99, n: reads.N, beyond: beyond(reads.N, 0.99)}
	m["read_per_s"] = measured{Value: median(rates), n: reads.N,
		note: "median of the windows' rates " + fmtList(rates) + "; per-client reads per second not spent checking, summed"}
	writes := summarize(pr.writes)
	m["write_p50_ms"] = measured{Value: writes.P50, n: writes.N}
	m["write_p90_ms"] = measured{Value: writes.P90, n: writes.N, beyond: beyond(writes.N, 0.9)}
	if r.sys.applies != nil {
		var lag []float64
		for _, a := range pr.acks {
			if at, ok := r.sys.applies.get(a.epoch); ok {
				lag = append(lag, float64(at.Sub(a.at))/1e6)
			}
		}
		s := summarize(lag)
		m["replica_lag_p50_ms"] = measured{Value: s.P50, n: s.N}
		m["replica_lag_p90_ms"] = measured{Value: s.P90, n: s.N, beyond: beyond(s.N, 0.9)}
	}
	m["fail_frac"] = measured{Value: ratio(float64(pr.failed), float64(pr.attempted)), n: pr.attempted}
	return m
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// postChecks verifies the end state of a live workload: every published
// epoch was acknowledged, and on routed the router never failed over,
// the follower never resynced and it caught up with the leader.
func (r *runner) postChecks() []string {
	sys := r.sys
	if sys.static {
		return nil
	}
	var fails []string
	leader := sys.gr.Live().Snapshot().Epoch
	if acked := r.epoch.Load(); leader != acked {
		fails = append(fails, fmt.Sprintf("leader at epoch %d but the last acknowledged write made epoch %d", leader, acked))
	}
	if sys.router == nil {
		return fails
	}
	if n := sys.router.Failovers(); n != 0 {
		fails = append(fails, fmt.Sprintf("router failed over %d times", n))
	}
	if err := sys.follower.WaitCaughtUp(leader, 10*time.Second); err != nil {
		fails = append(fails, "follower behind the leader: "+err.Error())
	}
	st := sys.follower.Status()
	if st.Resyncs != 0 || st.Err != "" {
		fails = append(fails, fmt.Sprintf("follower resynced %d times (last error %q)", st.Resyncs, st.Err))
	}
	return fails
}

// mirrorBudget bounds the time a traced run spends in the mirror.
const mirrorBudget = 5 * time.Second

// tracedRun is what a traced run measured: the per-layer metrics, the
// accounting lines, its phases in order and the post-run failures.
type tracedRun struct {
	m          metricSet
	accounting []string
	phases     []*phaseResult
	post       []string
}

// allocsPerRead runs the clients for d with the output checks off and
// returns the phase and the heap allocations the process made per read
// meanwhile. With no checks running, the figure is the service's
// allocations plus the client's request and reply handling — in-process
// calls, or on routed the HTTP client, the router and both nodes — and,
// on ingest and routed, the writes of the mix and the follower's
// tailing, spread over the reads.
func (r *runner) allocsPerRead(clients []*client, d time.Duration) (*phaseResult, float64) {
	r.checksOff = true
	defer func() { r.checksOff = false }()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pr := r.phase(clients, d, false)
	runtime.ReadMemStats(&ms1)
	return pr, ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(pr.allReads().n))
}

// traced runs the traced measurement: a tenth of the time with the
// checks off, for the allocation count, which also warms the system in;
// an untraced half, whose figures are the baseline for the tracing
// overhead and give the write and lag metrics; a traced half; then the
// mirror.
func traced(r *runner, clients []*client, d time.Duration, times []setupTimes) (*tracedRun, error) {
	sys, tr := r.sys, r.tr
	unchecked := d / 10
	half := (d - unchecked) / 2
	pu, allocs := r.allocsPerRead(clients, unchecked)
	pa := r.phase(clients, half, false)
	h0, m0 := sys.cacheStats()
	conns0, wal0 := sys.backendConns(), sys.walBytes()
	pb := r.phase(clients, half, true)
	h1, m1 := sys.cacheStats()
	conns1, wal1 := sys.backendConns(), sys.walBytes()
	post := r.postChecks()
	spans := tr.snapshot()

	var (
		mr     *mirrorResult
		err    error
		budget = min(half, mirrorBudget)
	)
	if sys.static {
		mr = mirrorStatic(sys, tr, pb.firstSights, budget)
	} else {
		tracedFrom := uint64(1<<63 - 1)
		for _, a := range pb.acks {
			tracedFrom = min(tracedFrom, a.epoch)
		}
		acks := append(append(append([]*ack(nil), pu.acks...), pa.acks...), pb.acks...)
		if mr, err = mirrorLive(sys, tr, acks, tracedFrom, budget); err != nil {
			return nil, fmt.Errorf("trace mirror: %w", err)
		}
	}

	m := r.endToEnd(pa, times)
	for _, sp := range endToEndSpecs {
		delete(m, sp.name)
	}

	// Real spans, grouped per request.
	type tree struct{ op, route, serve *span }
	byReq := map[uint64]*tree{}
	get := func(req uint64) *tree {
		t := byReq[req]
		if t == nil {
			t = &tree{}
			byReq[req] = t
		}
		return t
	}
	var wal []float64
	walEnd := map[uint64]int64{}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanOp:
			get(s.Req).op = s
		case spanRoute:
			get(s.Req).route = s
		case spanServe:
			get(s.Req).serve = s
		case spanWAL:
			wal = append(wal, s.dur()/1e3)
			walEnd[s.Epoch] = s.End
		}
	}
	self := selfTimes(spans)
	var serve, proxy []float64
	follower := 0
	type acct struct {
		e2e                      []float64
		routeSelf, serveSum, ops float64
	}
	acc := map[string]*acct{"read": {}, "write": {}}
	for _, t := range byReq {
		if t.op == nil || t.serve == nil || (sys.router != nil && t.route == nil) {
			continue
		}
		a := acc[t.op.Node]
		a.ops++
		a.e2e = append(a.e2e, t.op.dur()/1e3)
		a.serveSum += t.serve.dur() / 1e3
		if t.route != nil {
			a.routeSelf += self[t.route.ID] / 1e3
		}
		if t.op.Node != "read" {
			continue
		}
		serve = append(serve, t.serve.dur()/1e3)
		if t.route != nil {
			proxy = append(proxy, self[t.route.ID]/1e3)
		}
		if t.serve.Node == "follower" {
			follower++
		}
	}
	sv := summarize(serve)
	m["service.serve_us"] = measured{Value: sv.P50, n: sv.N}
	m["service.serve_p99_us"] = measured{Value: sv.P99, n: sv.N, beyond: beyond(sv.N, 0.99)}
	hits, misses := float64(h1-h0), float64(m1-m0)
	m["service.hit_ratio"] = measured{Value: ratio(hits, hits+misses), n: int(hits + misses)}
	nb := pb.allReads().n
	m["service.not_modified_ratio"] = measured{Value: ratio(float64(pb.notModified), float64(nb)), n: nb}
	m["service.allocs_per_read"] = measured{Value: allocs, n: pu.allReads().n,
		note: "process mallocs per read with the checks off: service, client calls, and on live workloads the writes and tailing"}

	med := func(name string, xs []float64) {
		m[name] = measured{Value: median(xs), n: len(xs)}
	}
	med("core.discover_us", mr.discover)
	med("core.refresh_us", mr.refresh)
	med("core.discover_at_us", mr.discoverAt)
	m["core.full_search_ratio"] = measured{Value: ratio(float64(mr.fullSearches), float64(mr.fullSearches+mr.certServes)), n: int(mr.fullSearches + mr.certServes)}
	med("render.document_us", mr.document)
	med("render.text_us", mr.text)
	med("render.encode_us", mr.encode)
	med("dynamic.apply_us", mr.apply)
	med("dynamic.freeze_us", mr.freeze)
	med("score.refresh_us", mr.scores)
	med("score.compute_ms", mr.computeMS)
	med("storage.wal_append_us", wal)
	m["storage.wal_bytes_per_write"] = measured{Value: ratio(float64(wal1-wal0), float64(len(pb.writes))), n: len(pb.writes)}
	med("fleet.proxy_us", proxy)
	if sys.router != nil {
		m["fleet.follower_share"] = measured{Value: ratio(float64(follower), float64(sv.N)), n: sv.N}
		m["fleet.conns_per_kreq"] = measured{Value: ratio(float64(conns1-conns0), float64(pb.attempted)) * 1000, n: pb.attempted}
		st := sys.follower.Status()
		m["repl.resyncs"] = measured{Value: float64(st.Resyncs)}
		m["repl.bootstraps"] = measured{Value: float64(st.Bootstraps)}
		var apply []float64
		for epoch, end := range walEnd {
			if at, ok := sys.applies.get(epoch); ok {
				apply = append(apply, float64(at.Sub(tr.origin.Add(time.Duration(end))))/1e3)
			}
		}
		med("repl.apply_us", apply)
	}
	var gen, rec, warm []float64
	for _, t := range times {
		gen, rec, warm = append(gen, t.generate), append(rec, t.recover), append(warm, t.warm)
	}
	m["setup.generate_s"] = measured{Value: median(gen), n: len(gen)}
	m["setup.recover_s"] = measured{Value: median(rec), n: len(rec)}
	m["setup.warm_s"] = measured{Value: median(warm), n: len(warm)}
	base, tracedP50 := pa.allReads().quantile(0.5), pb.tracedReads.quantile(0.5)
	m["trace.overhead_pct"] = measured{Value: ratio(tracedP50-base, base) * 100, n: pb.tracedReads.n,
		note: fmt.Sprintf("traced read p50 %.4f ms vs untraced %.4f ms", tracedP50, base)}

	// Accounting: per op class, the end-to-end time against the layers'
	// self times. Real spans give the router's and the node's times and
	// the WAL append; the mirror estimates how the node's time splits
	// into discovery, rendering, the live graph and the score refresh.
	// The residual is what no layer covers: the client, the transport and
	// the HTTP plumbing around the handlers.
	mean := func(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
	var lines []string
	reads := float64(nb)
	missPerRead := ratio(misses, reads)
	renderPerRead := ratio(sum(mr.document)+sum(mr.encode)+sum(mr.text), float64(mr.reads))
	for _, class := range []string{"read", "write"} {
		a := acc[class]
		if a.ops == 0 {
			continue
		}
		e2e := summarize(a.e2e)
		layer := map[string]float64{"fleet": a.routeSelf / a.ops}
		serveMean := a.serveSum / a.ops
		if class == "read" {
			if sys.static {
				layer["core"] = missPerRead * mean(mr.discover)
			} else {
				layer["core"] = missPerRead*mean(mr.discoverAt) + ratio(float64(len(pb.acks))*mr.refreshesPerEpoch*mean(mr.refresh), reads)
			}
			layer["render"] = missPerRead * renderPerRead
		} else {
			layer["storage"] = ratio(sum(wal), a.ops)
			layer["dynamic"] = mean(mr.apply) + mean(mr.freeze)
			layer["score"] = mean(mr.scores)
		}
		layer["service"] = serveMean - layer["core"] - layer["render"] - layer["storage"] - layer["dynamic"] - layer["score"]
		total := 0.0
		var parts []string
		for _, name := range []string{"fleet", "service", "storage", "core", "render", "dynamic", "score"} {
			total += layer[name]
			parts = append(parts, fmt.Sprintf("%s=%.2f", name, layer[name]))
		}
		residual := e2e.Mean - total
		if class == "read" {
			m["trace.residual_us"] = measured{Value: residual, n: e2e.N}
		}
		lines = append(lines, fmt.Sprintf("account %s class=%s ops=%d e2e_p50_us=%.2f e2e_mean_us=%.2f %s layer_sum_us=%.2f residual_us=%.2f",
			sys.plan.workload, class, e2e.N, e2e.P50, e2e.Mean, strings.Join(parts, " "), total, residual))
	}
	return &tracedRun{m: m, accounting: lines, phases: []*phaseResult{pu, pa, pb}, post: post}, nil
}
