package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	spanhop "repro"
	"repro/internal/hopset"
	"repro/internal/server"
)

// serve-mixed: an in-process server on loopback HTTP with a flat
// snapshot directory, default auditing and automatic rebuilds off. It
// holds one 40×40 grid with uniform weights 1..100, fixed like the
// road network (networkSeed). One closed-loop client runs a stream
// drawn from --seed in whole rounds; each round is
//
//	clean:     16 single queries, 4 hot pairs asked 3 times each (the
//	           result cache answers the repeats), 1 query of 8 pairs
//	insert:    8 inserts in two batches (the improving regime)
//	improving: 6 single queries
//	rebuild:   POST /graphs/{id}/rebuild, back to a clean oracle
//	delete:    deletes in two batches (the degrading regime)
//	degrading: 8 single queries
//	rebuild:   POST /graphs/{id}/rebuild, back to a clean oracle
//	spanner:   3 weighted spanners of the served graph, in-process
//
// The insert batch re-inserts the edges the previous round deleted,
// so the graph keeps its size from round to round.
const (
	serveSide       = 40
	serveMaxW       = 100
	serveGraph      = "grid"
	serveClean      = 16
	serveHot        = 4
	serveHotRepeats = 3
	serveMulti      = 8
	serveImproving  = 6
	serveDegrading  = 8
	serveInserts    = 8
	serveDeletes    = 4
	serveRestarts   = 15
	serveSpanners   = 3
)

// singles is the number of single-pair queries in one round.
const serveSingles = serveClean + serveHot*serveHotRepeats + serveImproving + serveDegrading

// serveQuery is one answered single-pair or multi-pair query, kept for
// the check.
type serveQuery struct {
	s, t   int32
	dist   int64 // spanhop.InfDist when unreachable
	regime string
	state  int // index of the replica state it was asked in
}

// serveStream is the client's side of the op stream; it survives
// server restarts.
type serveStream struct {
	r       *rng
	g       *spanhop.Graph // the graph, for the spanner probe
	seed    uint64
	base    []spanhop.Edge // the original grid, for choosing deletes
	orig    *replica       // the original grid, for its weights
	rep     *replica       // the edge set the server should hold now
	states  []*replica     // a copy per generation queries were asked at
	deleted [][2]int32     // the previous round's deletes
	hot     [][2]int32
	queries []serveQuery
	gen     uint64
}

type serveClient struct {
	base string
	hc   *http.Client
	rec  *recorder
}

func runServe(cfg config, rp *report) error {
	n := serveSide * serveSide
	wr := newRNG(networkSeed, "serve-weights")
	edges := gridEdges(serveSide, func() int64 { return 1 + int64(wr.intn(serveMaxW)) })
	input := filepath.Join(cfg.workdir, "grid.txt")
	if err := writeEdgeList(input, n, edges); err != nil {
		return err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	st := &serveStream{r: newRNG(cfg.seed, "serve-stream"), g: spanhop.NewGraph(int32(n), edges, true),
		seed: cfg.seed, base: edges, orig: newReplica(n, edges), rep: newReplica(n, edges),
		hot: gridPairs(newRNG(cfg.seed, "serve-hot"), serveSide, serveHot)}

	var srv *inproc
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		srv.stop()
		settle()
		t0 := time.Now()
		root := rec.begin("setup", 0)
		var err error
		srv, err = startServer(filepath.Join(cfg.workdir, fmt.Sprintf("snap%d", i)), rec)
		if err == nil {
			err = srv.client.register(input, networkSeed, root)
		}
		if err == nil {
			// Warm-up: clean queries fill the rounded-graph cache.
			warm := gridPairs(newRNG(cfg.seed, "serve-warm"), serveSide, 6)
			for _, p := range warm {
				if _, _, err = srv.client.query(p[0], p[1], false, root); err != nil {
					break
				}
			}
		}
		rec.end(root)
		if err != nil {
			srv.stop()
			return err
		}
		setups = append(setups, secs(time.Since(t0)))
	}
	rp.metrics["setup_s"] = median(setups)
	defer func() { srv.stop() }()
	size, err := readySnapshotBytes(srv.dir)
	if err != nil {
		return err
	}
	rp.metrics["oracle_bytes"] = float64(size)

	wp := hopset.DefaultWeightedParams(networkSeed)
	wp.Zeta = eps
	lo, hi := 1-eps, (1+eps)*wp.Params.ExpectedDistortion(n)

	// One measured pass. A traced run alternates untraced and traced
	// rounds, and restarts (passRec).
	g0, err := srv.client.generation()
	if err != nil {
		return err
	}
	st.gen = g0
	before, err := srv.client.counters()
	if err != nil {
		return err
	}
	settle()
	res, err := st.run(cfg, rec, srv.client, rp)
	if err != nil {
		return err
	}
	after, err := srv.client.counters()
	if err != nil {
		return err
	}
	d := func(k string) float64 { return after[k] - before[k] }
	if d("requests") > 0 {
		rp.metrics["server.cache_hit_ratio"] = d("cache_hits") / d("requests")
	}
	if d("batches") > 0 {
		rp.metrics["server.batch_size_mean"] = d("batched_queries") / d("batches")
	}
	rp.metrics["server.snapshot_writes"] = d("snapshot_writes")
	rp.metrics["obs.audit_checked"] = d("audit_checked")
	rp.metrics["obs.audit_cpu_s"] = d("audit_cpu_s")
	rp.metrics["spanner_edges"] = float64(res[0].sp.Size())
	rp.metrics["spanner.work"] = float64(res[0].cost.Work())
	rp.metrics["spanner.depth"] = float64(res[0].cost.Depth())
	rp.metrics["spanner.edge_stretch_max"] = spannerChecks(rp, n, edges, res[0].sp, newRNG(cfg.seed, "stretch-sample"), 64)

	// The server's own snapshot, restored by restarting.
	restarts := newHalves()
	count := serveRestarts
	if rec != nil {
		count *= 2
	}
	for i := 0; i < count; i++ {
		r, part := passRec(rec, i)
		dir := srv.dir
		srv.stop()
		settle()
		root := r.begin("probe.warm-start", 0)
		t0 := time.Now()
		srv, err = warmStart(dir, r)
		restarts[part].add("warm_start_ms", ms(time.Since(t0)))
		r.end(root)
		if err != nil {
			return err
		}
		if _, _, err := srv.client.query(0, 1, false, 0); err != nil {
			return fmt.Errorf("first query after warm start: %w", err)
		}
		gen, err := srv.client.generation()
		if err != nil {
			return err
		}
		if gen != st.gen {
			rp.fail("warm start restored generation %d, the stream is at %d", gen, st.gen)
		}
		st.gen = gen
	}

	half := func(res *serveResult, restarts samples) map[string]float64 {
		m := map[string]float64{}
		m["query_p50_ms"] = median(res.single)
		m["query_p95_ms"] = quantile(res.single, 0.95)
		m["update_p50_ms"] = median(res.updates)
		m["build_s"] = median(res.rebuilds) / 1e3
		m["ops_per_s"] = float64(res.requests) / res.elapsed.Seconds()
		m["spanner_s"] = median(res.spanner)
		m["warm_start_ms"] = median(restarts["warm_start_ms"])
		m["dynamic.rebuild_ms"] = median(res.rebuilds)
		for _, regime := range []string{"clean", "improving", "degrading"} {
			m["dynamic.query_"+regime+"_ms"] = median(res.byRegime[regime])
		}
		m["server.decode_ms"] = median(res.spans["decode"])
		m["server.queue_wait_ms"] = median(res.spans["queue-wait"])
		m["server.exec_ms"] = median(res.spans["exec"])
		fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: %d rounds, %d single queries, p50 %.2f ms, p95 %.2f ms (%d samples above p95)\n",
			res.rounds, len(res.single), m["query_p50_ms"], m["query_p95_ms"], len(res.single)-int(0.95*float64(len(res.single))+0.999))
		return m
	}
	untraced := half(res[0], restarts[0])
	if !cfg.trace {
		for k, v := range untraced {
			rp.metrics[k] = v
		}
	} else {
		traced := half(res[1], restarts[1])
		traceOverhead(rp, untraced, traced)
		// The server audits every traced query, against 1 in 64 of the
		// rest: the extra audit CPU per traced query, kept apart from
		// trace_overhead.
		perRound := func(r *serveResult) float64 { return r.auditCPU / float64(r.rounds) }
		rp.metrics["obs.traced_audit_cpu_ms"] = (perRound(res[1]) - perRound(res[0])) * 1e3 / serveSingles
		layerProbes(cfg, rec, rp, n, edges, traced)
	}
	// The check: every answer against the replica at the state it was
	// asked in; degrading answers exactly, the rest within the envelope.
	var ratios []float64
	cache := map[[2]int]int64{}
	adjs := map[int]*adjList{}
	for _, q := range st.queries {
		key := [2]int{q.state, int(q.s)*n + int(q.t)}
		want, ok := cache[key]
		if !ok {
			if adjs[q.state] == nil {
				adjs[q.state] = st.states[q.state].adj()
			}
			want = adjs[q.state].dijkstra(q.s)[q.t]
			cache[key] = want
		}
		if q.regime == "degrading" {
			if (want == inf) != (q.dist == spanhop.InfDist) || (want != inf && q.dist != want) {
				rp.fail("degrading answer (%d,%d) = %d, exact %d", q.s, q.t, q.dist, want)
			}
			continue
		}
		ratio, ok := envelope(q.dist, want, lo, hi)
		if !ok {
			rp.fail("%s answer (%d,%d) = %d, exact %d, envelope [%.3f, %.3f]", q.regime, q.s, q.t, q.dist, want, lo, hi)
		}
		if want != inf && want > 0 {
			ratios = append(ratios, ratio)
		}
	}
	rp.metrics["stretch_mean"] = mean(ratios)
	if cfg.trace {
		return writeTrace(cfg, rec)
	}
	return nil
}

// serveResult is one half of the measured pass over the stream.
type serveResult struct {
	single, updates, rebuilds []float64 // ms
	spanner                   []float64 // s
	sp                        *spanhop.Spanner
	cost                      *spanhop.Cost
	byRegime, spans           map[string][]float64
	requests, rounds          int
	elapsed                   time.Duration
	auditCPU                  float64 // s, counted in traced runs only
}

// run sends whole rounds, at least enough for 200 single queries,
// until cfg.seconds have passed. A traced run alternates untraced and
// traced rounds, runs an even number of them, and reads the audit CPU
// counter around each round.
func (st *serveStream) run(cfg config, rec *recorder, c *serveClient, rp *report) ([2]*serveResult, error) {
	var res [2]*serveResult
	for i := range res {
		res[i] = &serveResult{byRegime: map[string][]float64{}, spans: map[string][]float64{}}
	}
	minRounds := (200 + serveSingles - 1) / serveSingles
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start).Seconds() < cfg.seconds || (rec != nil && round%2 == 1); round++ {
		r, part := passRec(rec, round)
		c.rec = r
		var before map[string]float64
		var err error
		if rec != nil {
			if before, err = c.counters(); err != nil {
				return res, err
			}
		}
		t0 := time.Now()
		if err := st.round(c, res[part], rp); err != nil {
			return res, err
		}
		res[part].elapsed += time.Since(t0)
		res[part].rounds++
		if rec != nil {
			after, err := c.counters()
			if err != nil {
				return res, err
			}
			res[part].auditCPU += after["audit_cpu_s"] - before["audit_cpu_s"]
		}
	}
	return res, nil
}

// round sends one round of the stream.
func (st *serveStream) round(c *serveClient, res *serveResult, rp *report) error {
	root := c.rec.begin("serve.round", 0)
	defer c.rec.end(root)
	ask := func(s, t int32, regime string) error {
		res.requests++
		rp.attempted++
		d, lat, err := c.traced(s, t, regime, res, rp, root)
		if err != nil {
			rp.failed++
			return err
		}
		res.single = append(res.single, lat)
		res.byRegime[regime] = append(res.byRegime[regime], lat)
		st.queries = append(st.queries, serveQuery{s: s, t: t, dist: d, regime: regime, state: len(st.states) - 1})
		return nil
	}
	st.snapshot()

	// Clean: distinct pairs, hot pairs asked repeatedly, one multi-pair.
	clean := gridPairs(st.r, serveSide, serveClean)
	for i, p := range clean {
		if err := ask(p[0], p[1], "clean"); err != nil {
			return err
		}
		if i%serveHot == 0 {
			for _, h := range st.hot {
				if err := ask(h[0], h[1], "clean"); err != nil {
					return err
				}
			}
		}
	}
	multi := gridPairs(st.r, serveSide, serveMulti)
	res.requests++
	rp.attempted++
	dists, err := c.batch(multi, root)
	if err != nil {
		rp.failed++
		return err
	}
	for i, p := range multi {
		st.queries = append(st.queries, serveQuery{s: p[0], t: p[1], dist: dists[i], regime: "clean", state: len(st.states) - 1})
	}

	// Insert batch: the previous round's deletes come back, new
	// diagonals make up the rest.
	var ins []edgeOp
	for _, e := range st.deleted {
		ins = append(ins, edgeOp{"insert", e[0], e[1], st.orig.weight(e[0], e[1])})
	}
	var diag [][2]int32
	for len(ins) < serveInserts {
		r, c := st.r.intn(serveSide-1), st.r.intn(serveSide-1)
		u, v := int32(r*serveSide+c), int32((r+1)*serveSide+c+1)
		if st.rep.has(u, v) {
			continue
		}
		w := 1 + int64(st.r.intn(serveMaxW))
		ins = append(ins, edgeOp{"insert", u, v, w})
		st.rep.insert(u, v, w)
		diag = append(diag, [2]int32{u, v})
	}
	for _, e := range st.deleted {
		st.rep.insert(e[0], e[1], st.orig.weight(e[0], e[1]))
	}
	if err := st.mutate(c, ins, res, rp, root); err != nil {
		return err
	}
	st.snapshot()
	imp := gridPairs(st.r, serveSide, serveImproving)
	for _, p := range imp {
		if err := ask(p[0], p[1], "improving"); err != nil {
			return err
		}
	}
	if err := c.rebuild(res, rp, root); err != nil {
		return err
	}

	// Delete batch: this round's diagonals and fresh grid edges.
	var del []edgeOp
	for _, e := range diag {
		del = append(del, edgeOp{Op: "delete", U: e[0], V: e[1]})
		st.rep.remove(e[0], e[1])
	}
	st.deleted = st.deleted[:0]
	for len(st.deleted) < serveDeletes {
		e := st.base[st.r.intn(len(st.base))]
		if !st.rep.has(e.U, e.V) {
			continue
		}
		st.rep.remove(e.U, e.V)
		st.deleted = append(st.deleted, [2]int32{e.U, e.V})
		del = append(del, edgeOp{Op: "delete", U: e.U, V: e.V})
	}
	if err := st.mutate(c, del, res, rp, root); err != nil {
		return err
	}
	st.snapshot()
	deg := gridPairs(st.r, serveSide, serveDegrading)
	for _, p := range deg {
		if err := ask(p[0], p[1], "degrading"); err != nil {
			return err
		}
	}

	if err := c.rebuild(res, rp, root); err != nil {
		return err
	}
	// Construction-side probe on the served graph, spread over the run.
	for i := 0; i < serveSpanners; i++ {
		d, sp, cost := buildSpanner(c.rec, root, st.g, st.seed)
		res.spanner, res.sp, res.cost = append(res.spanner, d), sp, cost
	}
	return nil
}

// rebuild folds the pending mutations into a fresh oracle.
func (c *serveClient) rebuild(res *serveResult, rp *report, parent int) error {
	res.requests++
	rp.attempted++
	id := c.rec.begin("dynamic.rebuild", parent)
	t0 := time.Now()
	err := c.post("/graphs/"+serveGraph+"/rebuild", nil, nil)
	res.rebuilds = append(res.rebuilds, ms(time.Since(t0)))
	c.rec.end(id)
	if err != nil {
		rp.failed++
		return fmt.Errorf("rebuild: %w", err)
	}
	return nil
}

// snapshot starts a new replica state for the queries that follow.
func (st *serveStream) snapshot() {
	cp := &replica{n: st.rep.n, w: make(map[[2]int32]int64, len(st.rep.w))}
	for k, v := range st.rep.w {
		cp.w[k] = v
	}
	st.states = append(st.states, cp)
}

type edgeOp struct {
	Op string `json:"op"`
	U  int32  `json:"u"`
	V  int32  `json:"v"`
	W  int64  `json:"w,omitempty"`
}

// mutate sends the ops in two batches, checking each acknowledged
// generation.
func (st *serveStream) mutate(c *serveClient, ops []edgeOp, res *serveResult, rp *report, parent int) error {
	half := len(ops) / 2
	if err := st.send(c, ops[:half], res, rp, parent); err != nil {
		return err
	}
	return st.send(c, ops[half:], res, rp, parent)
}

// send sends one mutation batch and checks the acknowledged
// generation.
func (st *serveStream) send(c *serveClient, ops []edgeOp, res *serveResult, rp *report, parent int) error {
	res.requests++
	rp.attempted++
	var ack struct {
		Generation uint64 `json:"generation"`
	}
	id := c.rec.begin("dynamic.ApplyUpdates", parent)
	t0 := time.Now()
	err := c.post("/graphs/"+serveGraph+"/edges", map[string]any{"updates": ops}, &ack)
	res.updates = append(res.updates, ms(time.Since(t0)))
	c.rec.end(id)
	if err != nil {
		rp.failed++
		return fmt.Errorf("mutation batch: %w", err)
	}
	st.gen += uint64(len(ops))
	if ack.Generation != st.gen {
		rp.fail("mutation batch acknowledged generation %d, the stream predicts %d", ack.Generation, st.gen)
		st.gen = ack.Generation
	}
	return nil
}

// ---------------------------------------------------------------------
// The in-process server and its client.

type inproc struct {
	dir     string
	srv     *server.Server
	hs      *http.Server
	done    chan struct{}
	client  *serveClient
	stopped bool
}

func serverConfig(dir string) server.Config {
	return server.Config{
		SnapshotDir: dir,
		// Rebuilds happen only where the stream asks for them.
		RebuildMaxJournal:       -1,
		RebuildMaxPatchFraction: -1,
	}
}

func startServer(dir string, rec *recorder) (*inproc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return listen(dir, server.New(serverConfig(dir)), rec)
}

// warmStart boots a server on an existing snapshot directory: the
// graph is ready once WarmStart returns.
func warmStart(dir string, rec *recorder) (*inproc, error) {
	s := server.New(serverConfig(dir))
	if restored, errs := s.Registry().WarmStart(); restored != 1 || len(errs) > 0 {
		s.Close()
		return nil, fmt.Errorf("warm start restored %d graphs, errors %v", restored, errs)
	}
	return listen(dir, s, rec)
}

func listen(dir string, s *server.Server, rec *recorder) (*inproc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	p := &inproc{dir: dir, srv: s, hs: &http.Server{Handler: s.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		_ = p.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	tr := &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 4}
	p.client = &serveClient{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, rec: rec}
	return p, nil
}

// stop drains HTTP, then closes the server, which flushes pending
// snapshot writes, and waits for the listener goroutine. Stopping a
// nil or stopped server does nothing.
func (p *inproc) stop() {
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = p.hs.Shutdown(ctx)
	<-p.done
	p.srv.Close()
	p.client.hc.CloseIdleConnections()
}

func (c *serveClient) post(path string, body, out any) error {
	_, err := c.do(http.MethodPost, path, body, out, nil)
	return err
}

func (c *serveClient) get(path string, out any) error {
	_, err := c.do(http.MethodGet, path, nil, out, nil)
	return err
}

// do sends one request with a JSON body (nil for none), decodes a 2xx
// response into out (nil to discard) and returns the response headers.
func (c *serveClient) do(method, path string, body, out any, hdr http.Header) (http.Header, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return nil, err
		}
	}
	return resp.Header, nil
}

type queryAnswer struct {
	Dist        int64 `json:"dist"`
	Unreachable bool  `json:"unreachable"`
}

func (a queryAnswer) value() int64 {
	if a.Unreachable {
		return spanhop.InfDist
	}
	return a.Dist
}

// register adds the graph from the input file and waits until it is
// ready.
func (c *serveClient) register(file string, seed uint64, parent int) error {
	id := c.rec.begin("server.register", parent)
	defer c.rec.end(id)
	spec := map[string]any{"name": serveGraph, "file": file, "eps": eps, "seed": seed}
	if err := c.post("/graphs", spec, nil); err != nil {
		return err
	}
	for {
		var info struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := c.get("/graphs/"+serveGraph, &info); err != nil {
			return err
		}
		switch info.State {
		case "ready":
			return nil
		case "failed":
			return errors.New("graph build failed: " + info.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// query asks one pair; traced asks for the server's span trace.
func (c *serveClient) query(s, t int32, trace bool, parent int) (int64, *obsTrace, error) {
	var a queryAnswer
	hdr := http.Header{}
	if trace {
		hdr.Set(server.TraceHeader, "1")
	}
	id := c.rec.begin("server.query", parent)
	resp, err := c.do(http.MethodPost, "/graphs/"+serveGraph+"/query", map[string]any{"s": s, "t": t}, &a, hdr)
	c.rec.end(id)
	if err != nil {
		return 0, nil, err
	}
	var tr *obsTrace
	if h := resp.Get(server.TraceHeader); h != "" {
		tr = &obsTrace{}
		if err := json.Unmarshal([]byte(h), tr); err != nil {
			return 0, nil, fmt.Errorf("trace header: %w", err)
		}
	}
	return a.value(), tr, nil
}

// obsTrace is the server's trace header: spans and attributes.
type obsTrace struct {
	Spans []struct {
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
	} `json:"spans"`
	Attrs map[string]any `json:"attrs"`
}

// traced times one single query; in a traced round it also files the
// server's spans and checks the server's regime against the stream's.
func (c *serveClient) traced(s, t int32, regime string, res *serveResult, rp *report, parent int) (int64, float64, error) {
	t0 := time.Now()
	d, tr, err := c.query(s, t, c.rec != nil, parent)
	lat := ms(time.Since(t0))
	if err != nil || tr == nil {
		return d, lat, err
	}
	start := c.rec.since(t0)
	for _, sp := range tr.Spans {
		dur := time.Duration(sp.DurUS * 1e3)
		c.rec.add("server."+sp.Name, parent, start+time.Duration(sp.StartUS*1e3), dur)
		res.spans[sp.Name] = append(res.spans[sp.Name], sp.DurUS/1e3)
	}
	if got, ok := tr.Attrs["regime"].(string); ok && got != regime {
		rp.fail("query (%d,%d): server regime %q, the stream implies %q", s, t, got, regime)
	}
	return d, lat, nil
}

// batch asks several pairs in one request.
func (c *serveClient) batch(pairs [][2]int32, parent int) ([]int64, error) {
	var out struct {
		Results []queryAnswer `json:"results"`
	}
	id := c.rec.begin("server.query-batch", parent)
	err := c.post("/graphs/"+serveGraph+"/query", map[string]any{"pairs": pairs}, &out)
	c.rec.end(id)
	if err != nil {
		return nil, err
	}
	if len(out.Results) != len(pairs) {
		return nil, fmt.Errorf("batch of %d pairs answered %d", len(pairs), len(out.Results))
	}
	d := make([]int64, len(pairs))
	for i, a := range out.Results {
		d[i] = a.value()
	}
	return d, nil
}

func (c *serveClient) generation() (uint64, error) {
	var info struct {
		Dynamic struct {
			Generation uint64 `json:"generation"`
		} `json:"dynamic"`
	}
	err := c.get("/graphs/"+serveGraph, &info)
	return info.Dynamic.Generation, err
}

// counters reads the /stats and /metrics counters the per-layer
// metrics are deltas of.
func (c *serveClient) counters() (map[string]float64, error) {
	var stats struct {
		Graphs map[string]struct {
			Requests       float64 `json:"requests"`
			CacheHits      float64 `json:"cache_hits"`
			Batches        float64 `json:"batches"`
			BatchedQueries float64 `json:"batched_queries"`
		} `json:"graphs"`
	}
	if err := c.get("/stats", &stats); err != nil {
		return nil, err
	}
	g := stats.Graphs[serveGraph]
	out := map[string]float64{"requests": g.Requests, "cache_hits": g.CacheHits,
		"batches": g.Batches, "batched_queries": g.BatchedQueries}
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(f[0], `spanhop_events_total{event="snapshot_written"`):
			out["snapshot_writes"] += v
		case strings.HasPrefix(f[0], "spanhop_audit_checked_total"):
			out["audit_checked"] += v
		case strings.HasPrefix(f[0], "spanhop_audit_cpu_seconds_total"):
			out["audit_cpu_s"] += v
		}
	}
	return out, sc.Err()
}

// readySnapshotBytes waits for the snapshot the server writes when the
// graph becomes ready and returns its size.
func readySnapshotBytes(dir string) (int64, error) {
	path := filepath.Join(dir, serveGraph+".snap")
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if info, err := os.Stat(path); err == nil && info.Size() > 0 {
			return info.Size(), nil
		}
	}
	return 0, fmt.Errorf("no snapshot at %s after the graph became ready", path)
}
