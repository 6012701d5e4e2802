// Command perfbench is the repository's benchmark of the preview
// service. It runs one workload for a fixed time with two closed-loop
// clients, checks every reply it samples against a NoCache reference
// server, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) as the last line of its output:
//
//	bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
//
// Workloads: browse, explore, ingest, routed (see workloads in
// layers.go). Lines before the result start with '#' and give the
// environment, the sizes, every metric with its sample count, and on
// traced runs the per-layer accounting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run sets its system up at least setupReps times and until the
// set-ups have taken setupMin together, at most setupMax times; setup_s
// is their median, and the last system built is the one measured. The
// large workloads take 0.2 to 0.5 s to set up and stop at five; routed
// takes about 10 ms, much of it fsyncs and polling, and needs many more
// for a steady median.
const (
	setupReps = 5
	setupMin  = time.Second
	setupMax  = 200
)

// runSeconds is the measured time BENCHMARK.json asks for.
const runSeconds = 24

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the operation sequence")
	seconds := fs.Float64("seconds", runSeconds, "measured time")
	traced := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = untraced run printing end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if findWorkload(*workload) == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %v, --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	e := &env{workload: *workload, seed: *seed,
		dir: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))}
	if *traced == 1 {
		e.tr = newTracer()
	}
	defer os.RemoveAll(e.dir)
	res, report, err := bench(e, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range report {
		fmt.Fprintln(stdout, "# "+line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench sets the workload up repeatedly, measures the last system
// built, and returns the result and the report lines.
func bench(e *env, d time.Duration) (*result, []string, error) {
	var (
		sys   *system
		times []setupTimes
		spent float64 // seconds of set-up so far
	)
	for rep := 0; rep < setupMax && (rep < setupReps || spent < setupMin.Seconds()); rep++ {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
		}
		s, st, err := setup(e.workload, e, rep)
		if err != nil {
			return nil, nil, fmt.Errorf("setting up %s: %w", e.workload, err)
		}
		sys, times, spent = s, append(times, st), spent+st.total()
	}
	defer sys.close()

	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = &client{st: sys.plan.stream(e.seed, i), etags: map[string]string{}}
	}
	r := &runner{sys: sys, tr: e.tr}
	rep := &report{}
	rep.addf("perfbench workload=%s seed=%d seconds=%g trace=%t", e.workload, e.seed, d.Seconds(), e.tr != nil)
	rep.addf("env nproc=%d gomaxprocs=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	sz, _ := json.Marshal(sys.sizes)
	rep.addf("sizes %s", sz)
	rep.addf("why %s", findWorkload(e.workload).why)

	res := &result{Metrics: map[string]metric{}}
	if e.tr == nil {
		pr := r.phase(clients, d, false)
		post := r.postChecks()
		m := r.endToEnd(pr, times)
		// Drop the benchmark's own buffers before measuring the heap, so
		// the figure is the system's, not the sample count's.
		pr.reads, pr.tracedReads, pr.writes, pr.acks, pr.firstSights, pr.clients = nil, nil, nil, nil, nil, nil
		r.seen = nil
		for _, c := range clients {
			c.etags = nil
		}
		m["heap_live_mb"] = measured{Value: heapLiveMB(sys), note: "HeapInuse after a forced GC, system still live"}
		rep.tally(pr, post)
		rep.end(sys)
		res.Attempted, res.Failed = pr.attempted, pr.failed+len(post)
		for _, sp := range endToEndSpecs {
			res.Metrics[sp.name] = metric{Value: m[sp.name].Value, Unit: sp.unit}
		}
		rep.metrics(m, endToEndSpecs)
		// The workload-specific end-to-end figures (writes, replica lag,
		// failures) are reported here for every run; their machine-read
		// values come from traced runs.
		rep.metrics(m, opSpecs)
	} else {
		tr, err := traced(r, clients, d, times)
		if err != nil {
			return nil, nil, err
		}
		for _, pr := range tr.phases {
			rep.tally(pr, nil)
			res.Attempted, res.Failed = res.Attempted+pr.attempted, res.Failed+pr.failed
		}
		rep.failures(tr.post)
		res.Failed += len(tr.post)
		rep.end(sys)
		for _, sp := range perLayerSpecs {
			res.Metrics[sp.name] = metric{Value: tr.m[sp.name].Value, Unit: sp.unit}
		}
		rep.metrics(tr.m, perLayerSpecs)
		rep.lines = append(rep.lines, tr.accounting...)
		for _, sp := range perLayerSpecs {
			if sp.moves != "" {
				rep.addf("predict %s -> %s", sp.name, sp.moves)
			}
		}
		path := traceFile(".bench_build", e.workload)
		if err := e.tr.write(path); err != nil {
			return nil, nil, fmt.Errorf("writing the trace: %w", err)
		}
		rep.addf("trace %s (%d spans)", path, len(e.tr.snapshot()))
	}
	res.Correct = res.Failed == 0
	return res, rep.lines, nil
}

// report collects the '#' lines printed before the result.
type report struct{ lines []string }

func (r *report) addf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) tally(pr *phaseResult, post []string) {
	kind := "untraced"
	switch {
	case pr.traced:
		kind = "traced"
	case pr.unchecked:
		kind = "unchecked"
	}
	r.addf("phase %s wall=%.3fs attempted=%d failed=%d compared=%d compare_skipped=%d not_modified=%d check_s=%.3f verify_after_s=%.3f",
		kind, pr.wall.Seconds(), pr.attempted, pr.failed, pr.compared, pr.skipped, pr.notModified, pr.checkTime.Seconds(), pr.verifyTime.Seconds())
	for _, e := range pr.errs {
		r.addf("failure %s", e)
	}
	r.failures(post)
}

func (r *report) failures(errs []string) {
	for _, e := range errs {
		r.addf("failure %s", e)
	}
}

// end records the size of a live workload's graph at the end of the
// run. Writes repeat edges the graph has, so the live edge counter
// grows while the frozen graph keeps its size.
func (r *report) end(sys *system) {
	if sys.static {
		return
	}
	snap := sys.gr.Live().Snapshot()
	r.addf("end epoch=%d entities=%d edges=%d frozen_edges=%d types=%d",
		snap.Epoch, snap.Stats.Entities, snap.Stats.Edges, snap.Frozen.NumEdges(), snap.Stats.Types)
}

func (r *report) metrics(m metricSet, specs []metricSpec) {
	for _, sp := range specs {
		v := m[sp.name]
		line := fmt.Sprintf("metric %s %v %s", sp.name, v.Value, sp.unit)
		if v.n > 0 {
			line += fmt.Sprintf(" n=%d", v.n)
		}
		if v.beyond > 0 {
			line += fmt.Sprintf(" beyond=%d", v.beyond)
		}
		if v.note != "" {
			line += " (" + v.note + ")"
		}
		r.lines = append(r.lines, line)
	}
}

// heapLiveMB is HeapInuse after a forced collection, taken while the
// system is still set up and the benchmark's own buffers are dropped.
func heapLiveMB(sys *system) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sys)
	return float64(ms.HeapInuse) / (1 << 20)
}

// cpuModel names the CPU from the kernel's description of it.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}
