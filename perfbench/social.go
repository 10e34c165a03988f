package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	spanhop "repro"
	"repro/internal/exec"
)

// social-build: an R-MAT graph (2^10 vertices, 8 edges per vertex,
// skewed degrees, isolated vertices) with weights 10^(U·14), a ratio
// far past the (n/ε)³ bound, so the oracle takes the Appendix B
// weight-class decomposition. Each timed repetition builds the weighted
// spanner, builds the oracle, saves it as a flat snapshot and opens it
// by memory mapping, many times over.
const (
	socialScale = 10
	socialDeg   = 8
	// socialOpens is how many times each repetition opens the snapshot.
	socialOpens = 10
	// socialConnected and socialCross are the sampled pairs: within the
	// giant component, and across components.
	socialConnected = 100
	socialCross     = 8
	// socialQueriesPerRep is how many sampled pairs each repetition
	// asks the first repetition's restored oracle; the loop runs until
	// at least 200 connected queries are timed.
	socialQueriesPerRep = 10
)

func runSocial(cfg config, rp *report) error {
	n := 1 << socialScale
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var edges []spanhop.Edge
	var g *spanhop.Graph
	var setups []float64
	path := filepath.Join(cfg.workdir, "social.flat")
	for i := 0; i < setupRepeats; i++ {
		g, edges = nil, nil
		settle()
		t0 := time.Now()
		root := rec.begin("setup", 0)
		wr := newRNG(cfg.seed, "social-weights")
		edges = rmatEdges(newRNG(cfg.seed, "social-topology"), socialScale, socialDeg*n, func() int64 { return multiScale(wr, 10, 14) })
		g = spanhop.NewGraph(int32(n), edges, true)
		// Warm-up: one untimed repetition.
		if _, err := socialRep(nil, 0, g, cfg.seed, path, 1); err != nil {
			return err
		}
		rec.end(root)
		setups = append(setups, secs(time.Since(t0)))
	}
	rp.metrics["setup_s"] = median(setups)

	// Sampled pairs and their exact distances, from the checkers.
	comp := components(n, edges)
	pr := newRNG(cfg.seed, "social-pairs")
	giant := largest(comp)
	var conn, cross [][2]int32
	for len(conn) < socialConnected || len(cross) < socialCross {
		s, t := int32(pr.intn(n)), int32(pr.intn(n))
		switch {
		case s == t || comp[s] != giant:
		case comp[t] == giant && len(conn) < socialConnected:
			conn = append(conn, [2]int32{s, t})
		case comp[t] != giant && len(cross) < socialCross:
			cross = append(cross, [2]int32{s, t})
		}
	}
	adj := newAdjList(n, edges)
	sample := append(append([][2]int32(nil), conn...), cross...)
	exact := make([]int64, len(sample))
	for i, p := range sample {
		exact[i] = adj.dijkstra(p[0])[p[1]]
	}

	// One measured pass. A traced run alternates untraced and traced
	// repetitions (passRec) and runs an even number of them.
	var first socialResult
	var up *updater
	var lo, hi float64
	built := make([]spanhop.QueryStats, len(sample))
	answers := make([]spanhop.QueryStats, len(sample))
	halves := newHalves()
	var ratios []float64
	asked, connected := 0, 0
	start := time.Now()
	for nrep := 0; nrep < 3 || connected < 200 || time.Since(start).Seconds() < cfg.seconds || (rec != nil && nrep%2 == 1); nrep++ {
		r, part := passRec(rec, nrep)
		h := halves[part]
		settle()
		root := r.begin("social.repetition", 0)
		t0 := time.Now()
		res, err := socialRep(r, root, g, repSeed(cfg.seed, nrep), path, socialOpens)
		h.add("rep_s", secs(time.Since(t0)))
		rp.attempted += 3 + socialOpens
		if err != nil {
			rp.failed++
			return err
		}
		h.add("spanner_s", res.spanner)
		h.add("spanner_edges", float64(res.sp.Size()))
		h.add("oracle_bytes", float64(res.bytes))
		h.add("build_s", res.build)
		h.add("flat.save_s", res.save)
		for _, d := range res.opens {
			h.add("warm_start_ms", d)
		}
		if nrep == 0 {
			// Queries and updates use the first repetition's oracle,
			// whose seed does not depend on how many repetitions fit.
			first, up = res, newUpdater(res.built, edges, cfg.seed)
			lo, hi = res.built.StretchEnvelope()
			for i, p := range sample {
				if built[i], err = res.built.QueryStats(p[0], p[1]); err != nil {
					return err
				}
			}
		}
		// The repetition's garbage is collected before the timed queries.
		settle()
		for k := 0; k < socialQueriesPerRep; k++ {
			i := asked % len(sample)
			asked++
			p := sample[i]
			id := r.begin("spanhop.QueryStats", root)
			t0 := time.Now()
			st, err := first.restored.QueryStats(p[0], p[1])
			d := ms(time.Since(t0))
			r.end(id, "fallback", st.Fallback)
			rp.attempted++
			if err != nil {
				rp.failed++
				rp.fail("query (%d,%d): %v", p[0], p[1], err)
				continue
			}
			answers[i] = st
			if st.Dist != built[i].Dist {
				rp.fail("restored oracle answers (%d,%d) = %d, built %d", p[0], p[1], st.Dist, built[i].Dist)
			}
			ratio, ok := envelope(st.Dist, exact[i], lo, hi)
			if !ok {
				rp.fail("query (%d,%d) = %d, exact %d, envelope [%.3f, %.3f]", p[0], p[1], st.Dist, exact[i], lo, hi)
			}
			if i < len(conn) {
				h.add("lat", d)
				ratios = append(ratios, ratio)
				connected++
			}
		}
		for k := 0; k < 2; k++ {
			h.add("update_p50_ms", up.apply(r, root, rp))
		}
		r.end(root)
	}
	up.close()
	rp.metrics["stretch_mean"] = mean(ratios)
	rp.metrics["spanner.work"] = float64(first.cost.Work())
	rp.metrics["spanner.depth"] = float64(first.cost.Depth())
	rp.metrics["spanner.edge_stretch_max"] = spannerChecks(rp, n, edges, first.sp, newRNG(cfg.seed, "stretch-sample"), 64)
	if !first.built.Decomposed() {
		rp.fail("social oracle was not decomposed; the workload is meant for the weight-class path")
	}
	half := func(s samples) map[string]float64 {
		m := map[string]float64{}
		for _, k := range []string{"spanner_s", "build_s", "flat.save_s", "warm_start_ms", "spanner_edges", "oracle_bytes", "update_p50_ms"} {
			m[k] = median(s[k])
		}
		m["ops_per_s"] = float64(len(s["rep_s"])) / sum(s["rep_s"])
		m["query_p50_ms"] = median(s["lat"])
		m["query_p95_ms"] = quantile(s["lat"], 0.95)
		fmt.Fprintf(os.Stderr, "perfbench: social-build: %d repetitions, build p50 %.3f s, %d connected queries\n", len(s["rep_s"]), m["build_s"], len(s["lat"]))
		return m
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
	var stages []exec.StageStats
	id := rec.begin("social.layer-build", 0)
	o, _ := buildOracle(rec, id, g, cfg.seed, &stages)
	rec.end(id)
	buildLayers(rp, stages, o)
	layerProbes(cfg, rec, rp, n, edges, traced)
	fallbacks(rp, answers, exact)
	return writeTrace(cfg, rec)
}

// socialResult is one construction repetition.
type socialResult struct {
	spanner, build, save float64   // seconds
	opens                []float64 // milliseconds
	bytes                int64
	sp                   *spanhop.Spanner
	cost                 *spanhop.Cost
	built, restored      *spanhop.DistanceOracle
}

// socialRep runs one construction repetition with the given
// construction seed: weighted spanner, oracle build, flat save, and
// opens memory-mapped opens.
func socialRep(rec *recorder, parent int, g *spanhop.Graph, seed uint64, path string, opens int) (socialResult, error) {
	var r socialResult
	r.spanner, r.sp, r.cost = buildSpanner(rec, parent, g, seed)
	var stages []exec.StageStats
	o, d := buildOracle(rec, parent, g, seed, &stages)
	r.build, r.built = secs(d), o
	save, size, err := saveFlat(rec, parent, o, path)
	if err != nil {
		return r, err
	}
	r.save, r.bytes = secs(save), size
	for i := 0; i < opens; i++ {
		d, restored, err := openFlat(rec, parent, path, g)
		if err != nil {
			return r, err
		}
		r.opens, r.restored = append(r.opens, d), restored
	}
	return r, nil
}

// largest returns the label of the most common component.
func largest(comp []int32) int32 {
	count := map[int32]int{}
	best := comp[0]
	for _, c := range comp {
		count[c]++
		if count[c] > count[best] {
			best = c
		}
	}
	return best
}
