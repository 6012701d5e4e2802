package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The operation sequence is a pure function of (workload, seed): two
// streams with the same seed agree op for op, and another seed differs.
func TestOpStreamReproducible(t *testing.T) {
	for _, w := range workloads {
		g, err := baseGraph(w.name)
		if err != nil {
			t.Fatal(err)
		}
		p := newPlan(w.name, g)
		for client := 0; client < numClients; client++ {
			a, b, c := p.stream(7, client), p.stream(7, client), p.stream(8, client)
			var sa, sb, sc []op
			for i := 0; i < 500; i++ {
				sa, sb, sc = append(sa, a.next()), append(sb, b.next()), append(sc, c.next())
			}
			if !reflect.DeepEqual(sa, sb) {
				t.Errorf("%s client %d: same seed, different operations", w.name, client)
			}
			if reflect.DeepEqual(sa, sc) {
				t.Errorf("%s client %d: seeds 7 and 8 give identical operations", w.name, client)
			}
		}
	}
}

// The explore universe is at least ten times the response cache, and
// every index spells a distinct URL.
func TestExploreUniverse(t *testing.T) {
	n, pick := exploreUniverse()
	if n < 10*cacheCapacity {
		t.Fatalf("universe of %d URLs, want at least %d", n, 10*cacheCapacity)
	}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		p := pick(i).path(musicName)
		if seen[p] {
			t.Fatalf("index %d repeats %s", i, p)
		}
		seen[p] = true
	}
}

// corruptTarget flips one byte of every successful body.
type corruptTarget struct{ target }

func (c corruptTarget) do(method, path string, body []byte, inm string, tg tags) (response, error) {
	resp, err := c.target.do(method, path, body, inm, tg)
	if err == nil && method == http.MethodGet && resp.status == http.StatusOK && len(resp.body) > 0 {
		resp.body = append([]byte(nil), resp.body...)
		resp.body[len(resp.body)/2] ^= 1
	}
	return resp, err
}

// staleTarget answers every read with the first reply it saw for the
// URL, like a cache that is never invalidated.
type staleTarget struct {
	target
	first map[string]response
}

func (s *staleTarget) do(method, path string, body []byte, inm string, tg tags) (response, error) {
	if method != http.MethodGet {
		return s.target.do(method, path, body, inm, tg)
	}
	if r, ok := s.first[path]; ok {
		return r, nil
	}
	r, err := s.target.do(method, path, body, inm, tg)
	if err == nil {
		s.first[path] = r
	}
	return r, err
}

// drive runs n operations of one client against sys and returns the
// failures.
func drive(t *testing.T, sys *system, n int) *clientResult {
	t.Helper()
	r := &runner{sys: sys}
	c := &client{st: sys.plan.stream(1, 0), etags: map[string]string{}}
	res := newClientResult(time.Now(), time.Hour)
	for i := 0; i < n; i++ {
		r.do(c, c.st.next(), res, false)
	}
	r.verifyKept(res)
	return res
}

func setupT(t *testing.T, workload string) *system {
	t.Helper()
	sys, _, err := setup(workload, &env{workload: workload, dir: t.TempDir()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.close)
	return sys
}

func TestChecksCatchCorruptBody(t *testing.T) {
	sys := setupT(t, "browse")
	if res := drive(t, sys, 200); res.failed != 0 {
		t.Fatalf("healthy system: %d failures: %v", res.failed, res.errs)
	}
	sys.target = corruptTarget{sys.target}
	res := drive(t, sys, 200)
	if res.failed == 0 {
		t.Fatal("a corrupted body passed the checks")
	}
	if !strings.Contains(res.errs[0], "body differs") {
		t.Fatalf("unexpected failure: %s", res.errs[0])
	}
}

func TestChecksCatchStaleEpoch(t *testing.T) {
	sys := setupT(t, "ingest")
	if res := drive(t, sys, 40); res.failed != 0 {
		t.Fatalf("healthy system: %d failures: %v", res.failed, res.errs)
	}
	sys.target = &staleTarget{target: sys.target, first: map[string]response{}}
	res := drive(t, sys, 80)
	if res.failed == 0 {
		t.Fatal("reads stuck at an old epoch passed the checks")
	}
	for _, e := range res.errs {
		if !strings.Contains(e, "epoch") && !strings.Contains(e, "ETag") {
			t.Fatalf("unexpected failure: %s", e)
		}
	}
}

// A short traced run of the routed workload — two clients, both node
// wrappers, the router wrapper, the WAL hook and the live mirror — is
// correct and attributes time to the fleet and service layers.
func TestTracedRouted(t *testing.T) {
	e := &env{workload: "routed", dir: t.TempDir(), tr: newTracer()}
	sys, st, err := setup("routed", e, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	r := &runner{sys: sys, tr: e.tr}
	clients := []*client{
		{st: sys.plan.stream(1, 0), etags: map[string]string{}},
		{st: sys.plan.stream(1, 1), etags: map[string]string{}},
	}
	run, err := traced(r, clients, 2*time.Second, []setupTimes{st})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range run.phases {
		if pr.failed != 0 {
			t.Fatalf("failures: %v", pr.errs)
		}
	}
	if len(run.post) != 0 {
		t.Fatalf("failures after the run: %v", run.post)
	}
	for _, name := range []string{"service.serve_us", "service.allocs_per_read", "fleet.proxy_us", "storage.wal_append_us", "repl.apply_us", "dynamic.apply_us"} {
		if run.m[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, run.m[name].Value)
		}
	}
	if len(run.accounting) != 2 {
		t.Errorf("want a read and a write accounting row, got %q", run.accounting)
	}
}

// benchmarkDoc is BENCHMARK.json as the tables in this package define it.
func benchmarkDoc() map[string]any {
	type m = map[string]any
	var ws, e2e, layers []any
	for _, w := range workloads {
		ws = append(ws, m{"name": w.name, "why": w.why})
	}
	for _, sp := range endToEndSpecs {
		e2e = append(e2e, m{"name": sp.name, "unit": sp.unit, "better": sp.direction(), "bound": sp.bound})
	}
	for _, sp := range perLayerSpecs {
		layers = append(layers, m{"name": sp.name, "unit": sp.unit, "better": sp.direction()})
	}
	return m{
		"command":     []any{"bash", "perfbench/run.sh"},
		"paths":       []any{"perfbench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}
}

// BENCHMARK.json and the tables the benchmark reports from agree.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkDoc()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	wantRaw, _ := json.Marshal(want)
	var wantRT map[string]any
	if err := json.Unmarshal(wantRaw, &wantRT); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantRT) {
		t.Fatalf("BENCHMARK.json and the tables in layers.go disagree\n got: %s\nwant: %s", raw, wantRaw)
	}
}

// The latency histogram's quantiles stay within a bucket's width of the
// exact quantiles of the same sample.
func TestLatHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newLatHist()
	var xs []float64
	for i := 0; i < 100_000; i++ {
		x := math.Exp(rng.NormFloat64()*1.5 - 3) // ms, from µs to seconds
		xs = append(xs, x)
		h.add(x)
	}
	exact := summarize(xs)
	got := h.summary()
	if got.N != exact.N || math.Abs(got.Mean-exact.Mean) > 1e-9*exact.Mean {
		t.Fatalf("count or mean differ: %+v vs %+v", got, exact)
	}
	for _, c := range [][2]float64{{got.P50, exact.P50}, {got.P90, exact.P90}, {got.P99, exact.P99}} {
		if math.Abs(c[0]-c[1]) > c[1]/histSub {
			t.Fatalf("quantile %g, exact %g: off by more than 1/%d", c[0], c[1], histSub)
		}
	}
}
