package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// env is one benchmark process's configuration.
type env struct {
	workload string
	seed     int64
	dir      string  // scratch space for durable state, inside the checkout
	tr       *tracer // nil on untraced runs
}

// runner drives the closed loop: each client sends its next operation
// only after the previous reply, and checks the reply's bytes.
type runner struct {
	sys *system
	tr  *tracer

	seenMu    sync.Mutex
	seen      map[string]bool // URLs seen at seenEpoch
	seenEpoch uint64
	checkIDs  atomic.Uint64 // ids linking a checked request to the node that served it
	epoch     atomic.Uint64 // highest acknowledged write epoch

	// checksOff turns the output checks off for one phase: clients only
	// send, time and read their epoch from write acknowledgements. It is
	// set between phases, never while clients run.
	checksOff bool
}

// client is one closed-loop caller: a UI session or an ingest client.
type client struct {
	st    *stream
	etags map[string]string
	acked uint64 // the epoch this client's last write created
}

// ack is one acknowledged write.
type ack struct {
	epoch uint64
	at    time.Time
	body  []byte
	reads []*query // reads the client issued after it, in a traced phase
}

// clientResult is one client's tallies for one phase.
type clientResult struct {
	writes      []float64 // ms
	tracedReads *latHist  // reads whose span tree was recorded
	notModified int
	attempted   int
	failed      int
	compared    int // replies byte-compared against the reference
	skipped     int // compares skipped because the epoch moved meanwhile
	checkTime   time.Duration
	verifyTime  time.Duration // comparing kept replies after the phase
	kept        []kept        // static workloads: replies to compare after the phase
	errs        []string
	acks        []*ack
	firstSights []*query // traced reads that were the first of their URL

	// Windows of the phase: reads[w] holds the latencies of the reads a
	// client starts in window w, and checkIn[w] is the time the client
	// spent checking the operations it started in it.
	start   time.Time
	window  time.Duration
	reads   []*latHist
	checkIn []time.Duration
}

// windows is how many equal windows a phase is cut into. The read
// latency median and the read rate are medians over the windows, so a
// slow spell of the machine that covers less than half a run moves
// neither.
const windows = 5

func newClientResult(start time.Time, window time.Duration) *clientResult {
	res := &clientResult{start: start, window: window, tracedReads: newLatHist(),
		reads: make([]*latHist, windows), checkIn: make([]time.Duration, windows)}
	for w := range res.reads {
		res.reads[w] = newLatHist()
	}
	return res
}

// win returns the window an operation starting at t falls in.
func (res *clientResult) win(t time.Time) int {
	return min(int(t.Sub(res.start)/res.window), windows-1)
}

// allReads returns the latencies of every read of the phase.
func (res *clientResult) allReads() *latHist {
	h := newLatHist()
	for _, w := range res.reads {
		h.merge(w)
	}
	return h
}

func (res *clientResult) addCheck(w int, d time.Duration) {
	res.checkTime += d
	res.checkIn[w] += d
}

// phaseResult merges the clients' results of one phase.
type phaseResult struct {
	clientResult
	wall      time.Duration
	clients   []*clientResult
	traced    bool
	unchecked bool
}

// windowStats returns, per window, the median read latency over every
// client's reads and the read rate: each client's reads per second of
// the window it did not spend checking, summed over the clients, so the
// rate is what the system delivered to callers, not what the checker
// allowed.
func (pr *phaseResult) windowStats() (p50, rate []float64) {
	for w := 0; w < windows; w++ {
		if pr.reads[w].n == 0 {
			continue
		}
		var rw float64
		for _, c := range pr.clients {
			if active := pr.window - c.checkIn[w]; active > 0 {
				rw += float64(c.reads[w].n) / active.Seconds()
			}
		}
		p50, rate = append(p50, pr.reads[w].quantile(0.5)), append(rate, rw)
	}
	return p50, rate
}

// phase runs every client for d, compares the replies they kept with
// the reference once the measured time is over, and merges their
// results.
func (r *runner) phase(clients []*client, d time.Duration, traced bool) *phaseResult {
	if r.tr != nil {
		r.tr.on.Store(traced)
	}
	results := make([]*clientResult, len(clients))
	start := time.Now()
	deadline := start.Add(d)
	window := d / windows
	var wg sync.WaitGroup
	for i, c := range clients {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := newClientResult(start, window)
			for time.Now().Before(deadline) {
				r.do(c, c.st.next(), res, traced)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	for _, res := range results {
		res := res
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.verifyKept(res)
		}()
	}
	wg.Wait()
	pr := &phaseResult{clientResult: *newClientResult(start, window), wall: wall, clients: results, traced: traced, unchecked: r.checksOff}
	for _, res := range results {
		for w, h := range res.reads {
			pr.reads[w].merge(h)
		}
		pr.writes = append(pr.writes, res.writes...)
		pr.tracedReads.merge(res.tracedReads)
		pr.notModified += res.notModified
		pr.attempted += res.attempted
		pr.failed += res.failed
		pr.compared += res.compared
		pr.skipped += res.skipped
		pr.checkTime += res.checkTime
		pr.verifyTime += res.verifyTime
		pr.acks = append(pr.acks, res.acks...)
		pr.firstSights = append(pr.firstSights, res.firstSights...)
		if len(pr.errs) < 10 {
			pr.errs = append(pr.errs, res.errs...)
		}
	}
	return pr
}

// do sends one operation, times it, and checks the reply.
func (r *runner) do(c *client, o op, res *clientResult, traced bool) {
	res.attempted++
	w := res.win(time.Now())
	tg := tags{}
	if traced && r.tr.active() {
		id := r.tr.newID()
		tg.req, tg.parent = id, id
	}
	inm := ""
	if o.inm {
		inm = c.etags[o.path]
	}
	first := false
	if !o.write && !r.checksOff {
		var epoch uint64
		if r.sys.router != nil {
			epoch = r.epoch.Load()
		}
		first = r.firstSight(epoch, o.path)
	}
	chk := &checkState{first: first}
	if !r.checksOff {
		cs := time.Now()
		if err := r.before(o, chk, &tg); err != nil {
			r.fail(res, err)
		}
		res.addCheck(w, time.Since(cs))
	}

	method := http.MethodGet
	if o.write {
		method = http.MethodPost
	}
	var t0 int64
	if tg.req != 0 {
		t0 = r.tr.now()
	}
	start := time.Now()
	resp, err := r.sys.target.do(method, o.path, o.body, inm, tg)
	lat := float64(time.Since(start)) / 1e6
	if tg.req != 0 {
		class := "read"
		if o.write {
			class = "write"
		}
		r.tr.add(span{ID: tg.req, Req: tg.req, Name: spanOp, Node: class, Start: t0, End: r.tr.now()})
	}

	cs := time.Now()
	defer func() { res.addCheck(w, time.Since(cs)) }()
	if err != nil {
		r.fail(res, err)
		return
	}
	if o.write {
		res.writes = append(res.writes, lat)
		a, err := r.checkWrite(c, o, resp)
		if err != nil {
			r.fail(res, err)
			return
		}
		res.acks = append(res.acks, a)
		return
	}
	res.reads[w].add(lat)
	if tg.req != 0 {
		res.tracedReads.add(lat)
		if first && o.q != nil && o.q.discovers() {
			res.firstSights = append(res.firstSights, o.q)
		}
		if n := len(res.acks); n > 0 && r.sys.plan.workload == "ingest" {
			res.acks[n-1].reads = append(res.acks[n-1].reads, o.q)
		}
	}
	if resp.status == http.StatusNotModified {
		res.notModified++
	}
	// Only a workload that replays ETags keeps them; on explore the map
	// would grow with the URL universe.
	if resp.etag != "" && r.sys.plan.inmShare > 0 {
		c.etags[o.path] = resp.etag
	}
	if r.checksOff {
		if resp.status != http.StatusOK && resp.status != http.StatusNotModified {
			r.fail(res, fmt.Errorf("GET %s: status %d: %s", o.path, resp.status, clip(resp.body)))
		}
		return
	}
	if err := r.checkRead(c, o, inm, resp, chk, tg); err != nil {
		r.fail(res, err)
		return
	}
	if chk.keep {
		res.kept = append(res.kept, keep(o.path, resp))
	}
	if chk.compared {
		res.compared++
	}
	if chk.skipped {
		res.skipped++
	}
}

// firstSight reports whether path is seen for the first time at epoch.
// Routed reads count a URL anew at every acknowledged epoch; the other
// workloads pass epoch 0. The highest acknowledged epoch only grows, so
// the URLs seen at an earlier one are forgotten rather than kept for
// the rest of the run; a read that loaded its epoch just before another
// client's write moved it on counts as a first sight.
func (r *runner) firstSight(epoch uint64, path string) bool {
	r.seenMu.Lock()
	defer r.seenMu.Unlock()
	switch {
	case r.seen == nil || epoch > r.seenEpoch:
		r.seen, r.seenEpoch = map[string]bool{}, epoch
	case epoch < r.seenEpoch:
		return true
	}
	if r.seen[path] {
		return false
	}
	r.seen[path] = true
	return true
}

func (r *runner) fail(res *clientResult, err error) {
	res.failed++
	if len(res.errs) < 10 {
		res.errs = append(res.errs, err.Error())
	}
}

// checkState carries one read's check across the request: the view
// epochs bracketing it, and what the check did.
type checkState struct {
	first             bool
	lead0, fol0       uint64
	compared, skipped bool
	keep              bool // compare the reply after the phase
}

// before records what a read's check needs from before the request:
// the epochs the nodes serve, and the tag that lets a routed node say
// it served the request.
func (r *runner) before(o op, chk *checkState, tg *tags) error {
	if o.write || r.sys.static {
		return nil
	}
	if r.sys.router != nil && !chk.first && !o.sample {
		return nil
	}
	var err error
	if chk.lead0, err = r.sys.viewEpoch(r.sys.ref); err != nil {
		return err
	}
	if r.sys.router != nil {
		tg.check = r.checkIDs.Add(1)
		if chk.fol0, err = r.sys.viewEpoch(r.sys.refFollower); err != nil {
			return err
		}
	}
	return nil
}

// checkWrite checks a write's acknowledgement: 200 with an epoch past
// the client's previous one.
func (r *runner) checkWrite(c *client, o op, resp response) (*ack, error) {
	at := time.Now()
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", o.path, resp.status, clip(resp.body))
	}
	var doc struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(resp.body, &doc); err != nil {
		return nil, fmt.Errorf("POST %s: ack is not JSON: %v", o.path, err)
	}
	if doc.Epoch <= c.acked {
		return nil, fmt.Errorf("POST %s: acked epoch %d, not past this client's previous %d", o.path, doc.Epoch, c.acked)
	}
	c.acked = doc.Epoch
	for {
		cur := r.epoch.Load()
		if doc.Epoch <= cur || r.epoch.CompareAndSwap(cur, doc.Epoch) {
			break
		}
	}
	a := &ack{epoch: doc.Epoch, at: at}
	if r.tr != nil {
		// Only the trace mirror replays the batches; an untraced run
		// keeps no batch, so its heap does not grow with the writes.
		a.body = o.body
	}
	return a, nil
}

// checkRead checks one read reply. Every workload requires a success
// status (304 only for a replayed, still-current ETag) and compares the
// reply with the NoCache reference — body, ETag and content type — on
// the first sight of a URL and on a seeded sample. A static graph's
// replies never change, so they are kept and compared after the phase,
// outside the measured time. On a live graph the reference is compared
// at once, at the epoch the reply was served at, and ingest also checks
// every read against its client's acknowledged write.
func (r *runner) checkRead(c *client, o op, inm string, resp response, chk *checkState, tg tags) error {
	switch {
	case resp.status == http.StatusNotModified:
		if inm == "" || resp.etag != inm {
			return fmt.Errorf("GET %s: 304 without a matching If-None-Match (sent %q, got %q)", o.path, inm, resp.etag)
		}
	case resp.status != http.StatusOK:
		return fmt.Errorf("GET %s: status %d: %s", o.path, resp.status, clip(resp.body))
	}
	sys := r.sys
	switch {
	case sys.static:
		chk.keep = chk.first || o.sample
		return nil

	case sys.router == nil: // ingest
		lead1, err := sys.viewEpoch(sys.ref)
		if err != nil {
			return err
		}
		served, known := chk.lead0, chk.lead0 == lead1
		if o.q.route == "preview" {
			e, err := bodyEpoch(resp.body)
			if err != nil {
				return fmt.Errorf("GET %s: %v", o.path, err)
			}
			if e < c.acked {
				return fmt.Errorf("GET %s: served epoch %d after this client's write was acked at epoch %d", o.path, e, c.acked)
			}
			if e < chk.lead0 || e > lead1 {
				return fmt.Errorf("GET %s: served epoch %d outside the epochs [%d, %d] published around it", o.path, e, chk.lead0, lead1)
			}
			if !o.sample && !chk.first {
				return nil
			}
			served, known = e, true
		} else if served < c.acked {
			return fmt.Errorf("GET %s: node published epoch %d after this client's write was acked at epoch %d", o.path, served, c.acked)
		}
		return r.compareAt(o.path, resp, sys.ref, served, known, chk)

	default: // routed
		if tg.check == 0 {
			return nil
		}
		v, _ := sys.served.LoadAndDelete(tg.check)
		node, _ := v.(string)
		var served uint64
		known := false
		switch node {
		case "leader":
			lead1, err := sys.viewEpoch(sys.ref)
			if err != nil {
				return err
			}
			served, known = chk.lead0, chk.lead0 == lead1
		case "follower":
			fol1, err := sys.viewEpoch(sys.refFollower)
			if err != nil {
				return err
			}
			served, known = chk.fol0, chk.fol0 == fol1
		default:
			return fmt.Errorf("GET %s: no backend saw the request", o.path)
		}
		return r.compareAt(o.path, resp, sys.ref, served, known, chk)
	}
}

// compareAt compares a reply served at epoch served with the leader's
// reference at that same epoch. When the epoch is not known, or the
// leader has moved on, the compare is skipped and counted.
func (r *runner) compareAt(path string, resp response, ref http.Handler, served uint64, known bool, chk *checkState) error {
	if !known {
		chk.skipped = true
		return nil
	}
	a, err := r.sys.viewEpoch(ref)
	if err != nil {
		return err
	}
	want, err := handlerTarget{ref}.do(http.MethodGet, path, nil, "", tags{})
	if err != nil {
		return err
	}
	b, err := r.sys.viewEpoch(ref)
	if err != nil {
		return err
	}
	if a != b || a != served {
		chk.skipped = true
		return nil
	}
	chk.compared = true
	return same(path, resp, want)
}

// kept is a reply kept for comparing after the phase: its status and
// headers, and its body's digest instead of the body.
type kept struct {
	path string
	resp response
	sum  [sha256.Size]byte
}

func keep(path string, resp response) kept {
	k := kept{path: path, resp: resp, sum: sha256.Sum256(resp.body)}
	k.resp.body = nil
	return k
}

// verifyKept compares the replies a client kept with the reference's
// replies for the same URLs.
func (r *runner) verifyKept(res *clientResult) {
	start := time.Now()
	for _, k := range res.kept {
		want, err := handlerTarget{r.sys.ref}.do(http.MethodGet, k.path, nil, "", tags{})
		if err == nil {
			err = sameHead(k.path, k.resp, want)
		}
		if err == nil && k.resp.status != http.StatusNotModified && sha256.Sum256(want.body) != k.sum {
			err = fmt.Errorf("GET %s: body differs from the reference", k.path)
		}
		if err != nil {
			r.fail(res, err)
			continue
		}
		res.compared++
	}
	res.kept = nil
	res.verifyTime += time.Since(start)
}

// same reports whether got is the reference reply want. A 304 carries
// no body; its ETag must still name the current representation.
func same(path string, got, want response) error {
	if err := sameHead(path, got, want); err != nil {
		return err
	}
	if got.status != http.StatusNotModified && !bytes.Equal(got.body, want.body) {
		return fmt.Errorf("GET %s: body differs from the reference (%d vs %d bytes)", path, len(got.body), len(want.body))
	}
	return nil
}

// sameHead compares what same compares except the body.
func sameHead(path string, got, want response) error {
	if want.status != http.StatusOK {
		return fmt.Errorf("GET %s: reference answered %d: %s", path, want.status, clip(want.body))
	}
	if got.etag != want.etag {
		return fmt.Errorf("GET %s: ETag %s, reference %s", path, got.etag, want.etag)
	}
	if got.status == http.StatusNotModified {
		return nil
	}
	if got.ctype != want.ctype {
		return fmt.Errorf("GET %s: Content-Type %q, reference %q", path, got.ctype, want.ctype)
	}
	return nil
}

// bodyEpoch reads the epoch field of a preview document.
func bodyEpoch(body []byte) (uint64, error) {
	var doc struct {
		Epoch *uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, err
	}
	if doc.Epoch == nil {
		return 0, errors.New("preview of a live graph without an epoch")
	}
	return *doc.Epoch, nil
}
