package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	spanhop "repro"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/sssp"
)

// road-query: a 100×100 road-shaped grid with multi-scale weights
// (base 4, 5 scales: weight ratio about 10³, so the oracle is built
// directly, without the weight-class decomposition), written and read
// back as DIMACS .gr. Like a routing service, the network and its
// oracle are fixed (networkSeed), and --seed draws the query stream:
// one closed-loop client asks 96 pairs, a third each near, middle and
// far, in whole rounds. A side probe step (spanner, snapshot opens,
// update batches) runs after every 8 queries. Oracle builds happen only
// in set-up, and build_s is their median. The fixed network keeps
// the hopset's size out of the run-to-run spread: it swings by about
// 10% from one construction seed to another, and every query's cost
// moves with it.
const (
	roadSide  = 100
	roadPairs = 96
	// roadWarm is how many pairs the set-up queries before timing
	// starts: cold first queries fill the rounded-graph cache.
	roadWarm = 6
	// roadLayerPairs is how many pairs the traced run also sends to
	// the hopset and sssp layers directly.
	roadLayerPairs = 48
	// roadChunk is how many queries run between side probe steps.
	roadChunk = 8
)

func runRoad(cfg config, rp *report) error {
	wr := newRNG(networkSeed, "road-weights")
	edges := gridEdges(roadSide, func() int64 { return multiScale(wr, 4, 5) })
	n := roadSide * roadSide
	pairs := gridPairs(newRNG(cfg.seed, "road-pairs"), roadSide, roadPairs)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	grPath := filepath.Join(cfg.workdir, "road.gr")

	var g *spanhop.Graph
	var o *spanhop.DistanceOracle
	var setups, builds []float64
	var stages []exec.StageStats
	for i := 0; i < setupRepeats; i++ {
		g, o, stages = nil, nil, nil
		settle()
		t0 := time.Now()
		root := rec.begin("setup", 0)
		if err := writeDIMACS(grPath, n, edges); err != nil {
			return err
		}
		id := rec.begin("graph.ReadDIMACS", root)
		f, err := os.Open(grPath)
		if err != nil {
			return err
		}
		g, err = graph.ReadDIMACS(bufio.NewReader(f))
		f.Close()
		rec.end(id)
		if err != nil {
			return fmt.Errorf("read road graph: %w", err)
		}
		var d time.Duration
		o, d = buildOracle(rec, root, g, networkSeed, &stages)
		builds = append(builds, secs(d))
		id = rec.begin("hopset.warm", root)
		for _, p := range pairs[:roadWarm] {
			if _, err := o.QueryStats(p[0], p[1]); err != nil {
				return fmt.Errorf("warm-up query: %w", err)
			}
		}
		rec.end(id)
		rec.end(root)
		setups = append(setups, secs(time.Since(t0)))
	}
	rp.metrics["setup_s"] = median(setups)
	rp.metrics["build_s"] = median(builds)
	if o.Decomposed() {
		rp.fail("road oracle was decomposed; the workload is meant for the direct path")
	}

	// Exact distances from the independent checker, outside all timing.
	adj := newAdjList(n, edges)
	exact := make([]int64, len(pairs))
	bySrc := map[int32][]int64{}
	for i, p := range pairs {
		if bySrc[p[0]] == nil {
			bySrc[p[0]] = adj.dijkstra(p[0])
		}
		exact[i] = bySrc[p[0]][p[1]]
	}
	lo, hi := o.StretchEnvelope()

	// One measured pass. Pass-wide values go to m; the timed samples to
	// the untraced and traced halves.
	m := map[string]float64{}
	settle()
	side, err := newSideProbes(cfg, rec, m, g, o, edges)
	if err != nil {
		return err
	}
	halves, answers, err := roadQueries(cfg, rec, o, pairs, rp, side)
	if err != nil {
		return err
	}
	var ratios []float64
	for i, st := range answers {
		j := i % len(pairs)
		ratio, ok := envelope(st.Dist, exact[j], lo, hi)
		if !ok {
			rp.fail("query (%d,%d) = %d, exact %d, envelope [%.3f, %.3f]", pairs[j][0], pairs[j][1], st.Dist, exact[j], lo, hi)
		}
		if exact[j] != inf && exact[j] > 0 {
			ratios = append(ratios, ratio)
		}
	}
	m["stretch_mean"] = mean(ratios)
	side.finish(cfg, m, rp, o, edges, pairs[:8])
	for k, v := range m {
		rp.metrics[k] = v
	}
	half := func(s samples) map[string]float64 {
		h := map[string]float64{}
		lat := s["lat"]
		h["query_p50_ms"] = median(lat)
		h["query_p95_ms"] = quantile(lat, 0.95)
		h["ops_per_s"] = float64(len(lat)) / (sum(lat) / 1e3)
		h["spanhop.alloc_bytes_per_query"] = mean(s["alloc"])
		probeMetrics(h, s)
		fmt.Fprintf(os.Stderr, "perfbench: road-query: %d queries, p50 %.2f ms, p95 %.2f ms (%d samples above p95)\n",
			len(lat), h["query_p50_ms"], h["query_p95_ms"], len(lat)-int(math.Ceil(0.95*float64(len(lat)))))
		return h
	}
	untraced := half(halves[0])
	if !cfg.trace {
		for k, v := range untraced {
			rp.metrics[k] = v
		}
		return nil
	}
	traced := half(halves[1])
	traceOverhead(rp, untraced, traced)
	rp.metrics["graph.read_s"] = median(rec.durations("graph.ReadDIMACS")) / 1e3
	rp.metrics["hopset.warm_s"] = median(rec.durations("hopset.warm")) / 1e3
	buildLayers(rp, stages, o)
	layerProbes(cfg, rec, rp, n, edges, traced)
	fallbacks(rp, answers[:len(pairs)], exact)
	roadHopsetLayer(cfg, rec, rp, g, o, pairs[:roadLayerPairs], answers, exact)
	return writeTrace(cfg, rec)
}

// roadQueries is the closed-loop client: whole rounds over the pairs,
// at least 200 queries, until cfg.seconds have passed, with a side
// probe step after every roadChunk queries. A traced run alternates traced and untraced
// chunks (passRec), flipping the order every round so that each pair
// is asked in both halves, and runs an even number of rounds. It
// returns the two halves' samples (query latency "lat", heap bytes
// allocated "alloc", and the probes') and every answer, round by round.
func roadQueries(cfg config, rec *recorder, o *spanhop.DistanceOracle, pairs [][2]int32, rp *report, side *sideProbes) ([2]samples, []spanhop.QueryStats, error) {
	halves := newHalves()
	minRounds := (200 + len(pairs) - 1) / len(pairs)
	start := time.Now()
	var answers []spanhop.QueryStats
	for round := 0; round < minRounds || time.Since(start).Seconds() < cfg.seconds || (rec != nil && round%2 == 1); round++ {
		for i, p := range pairs {
			r, part := passRec(rec, i/roadChunk+round)
			h := halves[part]
			a0 := heapAllocBytes()
			id := r.begin("spanhop.QueryStats", 0)
			t0 := time.Now()
			st, err := o.QueryStats(p[0], p[1])
			h.add("lat", ms(time.Since(t0)))
			r.end(id, "fallback", st.Fallback, "levels", st.Levels)
			h.add("alloc", float64(heapAllocBytes()-a0))
			rp.attempted++
			if err != nil {
				rp.failed++
				rp.fail("query (%d,%d): %v", p[0], p[1], err)
			}
			answers = append(answers, st)
			if (i+1)%roadChunk == 0 {
				if err := side.step(r, rp, h); err != nil {
					return halves, nil, err
				}
			}
		}
	}
	return halves, answers, nil
}

// roadHopsetLayer measures the hopset and sssp layers under the facade
// on the first road pairs: Scaled.QueryOn on a hopset built exactly as
// the oracle's direct path builds it (its answers must equal the
// facade's), and the program's exact Dijkstra as the baseline.
func roadHopsetLayer(cfg config, rec *recorder, rp *report, g *spanhop.Graph, o *spanhop.DistanceOracle, pairs [][2]int32, facade []spanhop.QueryStats, exact []int64) {
	wp := hopset.DefaultWeightedParams(o.Seed())
	wp.Zeta = eps
	wp.Exec = exec.Sequential()
	root := rec.begin("hopset.BuildScaled", 0)
	sc := hopset.BuildScaled(g, wp, nil)
	rec.end(root)
	if sc.Size() != o.HopsetSize() {
		rp.fail("hopset rebuilt as the oracle's has %d edges, the oracle's %d", sc.Size(), o.HopsetSize())
	}
	qec := wp.Exec.Detached()
	for _, p := range pairs[:roadWarm] {
		sc.QueryOn(qec, p[0], p[1], nil)
	}
	var levels, work, ework []float64
	for i, p := range pairs {
		id := rec.begin("hopset.Scaled.QueryOn", 0)
		q := sc.QueryOn(qec, p[0], p[1], nil)
		rec.end(id, "levels", q.Levels, "work", q.Work, "scale", q.Scale, "fallback", q.Fallback)
		if q.Dist != facade[i].Dist {
			rp.fail("Scaled.QueryOn(%d,%d) = %d, facade %d", p[0], p[1], q.Dist, facade[i].Dist)
		}
		levels = append(levels, float64(q.Levels))
		work = append(work, float64(q.Work))
		cost := spanhop.NewCost()
		id = rec.begin("sssp.Dijkstra", 0)
		res := sssp.Dijkstra(g, []graph.V{p[0]}, sssp.Options{Cost: cost})
		rec.end(id)
		ework = append(ework, float64(cost.Work()))
		if d := res.Dist[p[1]]; (d == graph.InfDist) != (exact[i] == inf) || (exact[i] != inf && d != exact[i]) {
			rp.fail("sssp.Dijkstra(%d,%d) = %d, checker %d", p[0], p[1], d, exact[i])
		}
	}
	qms, ems := median(rec.durations("hopset.Scaled.QueryOn")), median(rec.durations("sssp.Dijkstra"))
	rp.metrics["hopset.query_ms"] = qms
	rp.metrics["hopset.levels_per_query"] = mean(levels)
	rp.metrics["hopset.work_per_query"] = mean(work)
	rp.metrics["hopset.rounded_cache_len"] = float64(sc.RoundedCacheLen())
	rp.metrics["sssp.exact_ms"] = ems
	rp.metrics["sssp.exact_work"] = mean(ework)
	rp.metrics["oracle_over_exact"] = qms / ems
	fmt.Fprintf(os.Stderr, "perfbench: oracle_over_exact = hopset.query_ms p50 %.3f ms / sssp.exact_ms p50 %.3f ms\n", qms, ems)
}

// fallbacks counts facade answers that ran the fallback Dijkstra,
// split by whether the checker says the pair is connected.
func fallbacks(rp *report, answers []spanhop.QueryStats, exact []int64) {
	for i, st := range answers {
		switch {
		case !st.Fallback:
		case exact[i] == inf:
			rp.metrics["hopset.fallback_disconnected"]++
		default:
			rp.metrics["hopset.fallback_connected"]++
		}
	}
}
