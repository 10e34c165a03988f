package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	spanhop "repro"
	"repro/internal/exec"
)

// sideProbes are the construction-side end-to-end metrics a query
// workload measures on its own graph and oracle: the weighted
// spanner, opening the flat snapshot and mutation acknowledgement. The
// workload calls step between chunks of queries, so that these samples
// span the whole measured window as the queries do: the host's speed
// drifts within seconds, and a burst of probes would catch one moment
// of it. Each step ends with settle, so that the next timed query does
// not pay for collecting its garbage.
type sideProbes struct {
	seed     uint64
	g        *spanhop.Graph
	path     string
	up       *updater
	sp       *spanhop.Spanner
	cost     *spanhop.Cost
	restored *spanhop.DistanceOracle
}

// newSideProbes saves the oracle's flat snapshot, recording its save
// time and size in m.
func newSideProbes(cfg config, rec *recorder, m map[string]float64, g *spanhop.Graph, o *spanhop.DistanceOracle, edges []spanhop.Edge) (*sideProbes, error) {
	p := &sideProbes{seed: cfg.seed, g: g, path: filepath.Join(cfg.workdir, cfg.workload+".flat"), up: newUpdater(o, edges, cfg.seed)}
	save, size, err := saveFlat(rec, 0, o, p.path)
	if err != nil {
		return nil, err
	}
	m["flat.save_s"] = secs(save)
	m["oracle_bytes"] = float64(size)
	return p, nil
}

// step runs one spanner build, two snapshot opens and two update
// batches, adding their times to s.
func (p *sideProbes) step(rec *recorder, rp *report, s samples) error {
	defer settle()
	root := rec.begin("probe", 0)
	defer rec.end(root)
	d, sp, cost := buildSpanner(rec, root, p.g, p.seed)
	s.add("spanner_s", d)
	p.sp, p.cost = sp, cost
	for i := 0; i < 2; i++ {
		d, o, err := openFlat(rec, root, p.path, p.g)
		if err != nil {
			return err
		}
		s.add("warm_start_ms", d)
		p.restored = o
		s.add("update_p50_ms", p.up.apply(rec, root, rp))
	}
	return nil
}

// finish closes the update probe, records the spanner's metrics and
// checks the spanner and the restored oracle, which must answer the
// check pairs exactly as the built one does.
func (p *sideProbes) finish(cfg config, m map[string]float64, rp *report, o *spanhop.DistanceOracle, edges []spanhop.Edge, check [][2]int32) {
	p.up.close()
	m["spanner_edges"] = float64(p.sp.Size())
	m["spanner.work"] = float64(p.cost.Work())
	m["spanner.depth"] = float64(p.cost.Depth())
	m["spanner.edge_stretch_max"] = spannerChecks(rp, int(p.g.NumVertices()), edges, p.sp, newRNG(cfg.seed, "stretch-sample"), 64)
	for _, q := range check {
		want, err1 := o.QueryStats(q[0], q[1])
		got, err2 := p.restored.QueryStats(q[0], q[1])
		if err1 != nil || err2 != nil || got.Dist != want.Dist {
			rp.fail("restored oracle answers (%d,%d) = %d (%v), built %d (%v)", q[0], q[1], got.Dist, err2, want.Dist, err1)
		}
	}
}

// probeMetrics are the medians of the side probes' samples in s.
func probeMetrics(m map[string]float64, s samples) {
	for _, k := range []string{"spanner_s", "warm_start_ms", "update_p50_ms"} {
		m[k] = median(s[k])
	}
}

// buildLayers reports the build stages recorded through the execution
// context's OnStage hook, and the oracle's shape.
func buildLayers(rp *report, stages []exec.StageStats, o *spanhop.DistanceOracle) {
	for _, s := range stages {
		switch s.Name {
		case "wscale-decompose":
			rp.metrics["wscale.decompose_s"] += s.WallMS / 1e3
		case "hopset-build":
			rp.metrics["hopset.build_s"] += s.WallMS / 1e3
			rp.metrics["hopset.build_work"] += float64(s.Work)
			rp.metrics["hopset.build_depth"] += float64(s.Depth)
		}
	}
	rp.metrics["wscale.instances"] = float64(o.InstanceCount())
	rp.metrics["hopset.edges"] = float64(o.HopsetSize())
}

// layerProbes times the layers under the spanner on the workload's
// topology with unit weights: one EST clustering at the spanner's
// β = ln(n)/(2k), and the unweighted spanner. The traced half's
// per-layer values carry over.
func layerProbes(cfg config, rec *recorder, rp *report, n int, edges []spanhop.Edge, traced map[string]float64) {
	for k, v := range traced {
		if strings.Contains(k, ".") {
			rp.metrics[k] = v
		}
	}
	g := spanhop.NewGraph(int32(n), edges, false)
	beta := math.Log(float64(n)) / (2 * spannerK)
	for i := 0; i < 3; i++ {
		id := rec.begin("core.ESTClusterOn", 0)
		c := spanhop.ESTClusterOn(g, beta, cfg.seed, exec.Sequential(), nil)
		rec.end(id, "clusters", c.NumClusters())
		rp.metrics["core.clusters"] = float64(c.NumClusters())
		id = rec.begin("spanhop.UnweightedSpannerOn", 0)
		sp := spanhop.UnweightedSpannerOn(g, spannerK, cfg.seed, exec.Sequential(), nil)
		rec.end(id, "edges", sp.Size())
		rp.metrics["spanner.unweighted_edges"] = float64(sp.Size())
	}
	rp.metrics["core.cluster_s"] = median(rec.durations("core.ESTClusterOn")) / 1e3
	rp.metrics["spanner.unweighted_s"] = median(rec.durations("spanhop.UnweightedSpannerOn")) / 1e3
}

// traceOverhead reports traced minus untraced for the end-to-end
// metrics both halves measured.
func traceOverhead(rp *report, untraced, traced map[string]float64) {
	for _, k := range overheadOf {
		u, ok1 := untraced[k]
		t, ok2 := traced[k]
		if ok1 && ok2 {
			rp.metrics["trace_overhead."+k] = t - u
		}
	}
}

// writeTrace writes the run's spans next to the work directory.
func writeTrace(cfg config, rec *recorder) error {
	dir := filepath.Join(filepath.Dir(cfg.workdir), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := rec.writeChrome(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}
