package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"time"

	spanhop "repro"
	"repro/internal/exec"
)

// Shared measurements. Each workload reports every end-to-end metric;
// where a metric is not the workload's main operation it is measured
// by one of these probes on the workload's own graph and oracle.

const (
	eps      = 0.25 // oracle accuracy for every workload
	spannerK = 3    // stretch parameter of every spanner
)

// newExec is the execution context library builds and queries run
// on: one worker, so that the two shared cores of a small host do not
// add scheduling noise to single-client timings. In a traced run each
// closed build stage (wscale-decompose, hopset-build) becomes a span
// under *parent and its PRAM work and depth are kept.
func newExec(rec *recorder, parent *int, stages *[]exec.StageStats) *exec.Ctx {
	if rec == nil {
		return exec.Sequential()
	}
	return exec.New(exec.Options{Workers: 1, Telemetry: exec.NewTelemetry(),
		OnStage: func(s exec.StageStats) {
			dur := time.Duration(s.WallMS * float64(time.Millisecond))
			rec.add(stageSpan(s.Name), *parent, rec.since(time.Now())-dur, dur)
			*stages = append(*stages, s)
		}})
}

func stageSpan(stage string) string {
	switch stage {
	case "wscale-decompose":
		return "wscale.decompose"
	case "hopset-build":
		return "hopset.build"
	}
	return "exec." + stage
}

// buildOracle builds the oracle under a span and returns its wall time.
func buildOracle(rec *recorder, parent int, g *spanhop.Graph, seed uint64, stages *[]exec.StageStats) (*spanhop.DistanceOracle, time.Duration) {
	id := rec.begin("spanhop.NewDistanceOracle", parent)
	ec := newExec(rec, &id, stages)
	t0 := time.Now()
	var cost *spanhop.Cost
	if rec != nil {
		cost = spanhop.NewCost() // stage work and depth are counted only with a Cost
	}
	o := spanhop.NewDistanceOracleOpts(g, eps, seed, spanhop.OracleOptions{Exec: ec, Cost: cost})
	d := time.Since(t0)
	rec.end(id)
	return o, d
}

// buildSpanner builds the weighted spanner (Theorem 3.3) once and
// returns its wall time, the result and its PRAM cost.
func buildSpanner(rec *recorder, parent int, g *spanhop.Graph, seed uint64) (float64, *spanhop.Spanner, *spanhop.Cost) {
	cost := spanhop.NewCost()
	id := rec.begin("spanhop.WeightedSpannerOn", parent)
	t0 := time.Now()
	sp := spanhop.WeightedSpannerOn(g, spannerK, seed, exec.Sequential(), cost)
	d := secs(time.Since(t0))
	rec.end(id, "edges", sp.Size())
	return d, sp, cost
}

// saveFlat writes the oracle as a flat snapshot at path and returns
// the save time and the file size. The file is written aside and
// renamed into place, as the server writes its snapshots: an oracle
// opened from an earlier file at path reads that file for its whole
// life, so rewriting the file in place would corrupt it.
func saveFlat(rec *recorder, parent int, o *spanhop.DistanceOracle, path string) (time.Duration, int64, error) {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return 0, 0, err
	}
	id := rec.begin("flat.SaveOracleFlat", parent)
	t0 := time.Now()
	err = spanhop.SaveOracleFlat(f, o)
	if err == nil {
		err = f.Sync()
	}
	save := time.Since(t0)
	rec.end(id)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("save flat snapshot: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return save, st.Size(), nil
}

// openFlat opens a flat snapshot by memory mapping and returns the
// open time in milliseconds and the oracle.
func openFlat(rec *recorder, parent int, path string, g *spanhop.Graph) (float64, *spanhop.DistanceOracle, error) {
	id := rec.begin("flat.OpenOracleFile", parent)
	t0 := time.Now()
	o, _, err := spanhop.OpenOracleFile(path, g, spanhop.OracleOptions{Exec: exec.Sequential()})
	d := ms(time.Since(t0))
	rec.end(id)
	if err != nil {
		return 0, nil, fmt.Errorf("open flat snapshot: %w", err)
	}
	return d, o, nil
}

// updater acknowledges batches of insert-only mutations through a
// DynamicOracle over the oracle, with automatic rebuilds off: the
// library path under the server's POST /edges. Each batch inserts
// pairs the replica says are absent. Acknowledgement cost grows with
// the pending overlay, so every updateCycle batches start again on a
// fresh DynamicOracle and replica; the samples then do not depend on
// how many batches a run fits.
type updater struct {
	o     *spanhop.DistanceOracle
	edges []spanhop.Edge
	r     *rng
	d     *spanhop.DynamicOracle
	rep   *replica
	gen   uint64
	done  int
}

const (
	updateCycle = 8
	updateSize  = 4
)

func newUpdater(o *spanhop.DistanceOracle, edges []spanhop.Edge, seed uint64) *updater {
	return &updater{o: o, edges: edges, r: newRNG(seed, "updates")}
}

// apply sends one batch, checks the acknowledged generation and
// returns the acknowledgement time in milliseconds.
func (u *updater) apply(rec *recorder, parent int, rp *report) float64 {
	if u.done%updateCycle == 0 {
		u.close()
		u.d = spanhop.NewDynamicOracle(u.o, spanhop.RebuildPolicy{Disabled: true})
		u.rep = newReplica(int(u.o.NumVertices()), u.edges)
		u.gen = u.d.Generation()
	}
	u.done++
	ups := make([]spanhop.DynamicUpdate, 0, updateSize)
	for len(ups) < updateSize {
		a, b := int32(u.r.intn(u.rep.n)), int32(u.r.intn(u.rep.n))
		if a == b || u.rep.has(a, b) {
			continue
		}
		w := 1 + int64(u.r.intn(1000))
		u.rep.insert(a, b, w)
		ups = append(ups, spanhop.DynamicUpdate{Op: spanhop.UpdateInsert, U: a, V: b, W: w})
	}
	id := rec.begin("dynamic.ApplyUpdates", parent)
	t0 := time.Now()
	got, err := u.d.ApplyUpdates(ups)
	d := ms(time.Since(t0))
	rec.end(id)
	rp.attempted++
	if err != nil {
		rp.failed++
		rp.fail("update batch %d: %v", u.done, err)
		return d
	}
	u.gen += uint64(len(ups))
	if got != u.gen {
		rp.fail("update batch %d acknowledged generation %d, want %d", u.done, got, u.gen)
	}
	return d
}

// close stops the current DynamicOracle's rebuild scheduler.
func (u *updater) close() {
	if u.d != nil {
		u.d.Close()
		u.d = nil
	}
}

// heapAllocBytes reads the cumulative heap allocation counter.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// spannerChecks verifies a spanner against the input with the
// independent checkers: its edges are input edges, it connects exactly
// the input's components, and the stretch of sampled input edges is
// within the O(k) envelope. It returns the largest sampled stretch.
func spannerChecks(rp *report, n int, edges []spanhop.Edge, sp *spanhop.Spanner, r *rng, sources int) float64 {
	sub := make([]spanhop.Edge, 0, sp.Size())
	for _, id := range sp.EdgeIDs {
		if id < 0 || int(id) >= len(edges) {
			rp.fail("spanner edge id %d outside the input's %d edges", id, len(edges))
			return math.Inf(1)
		}
		sub = append(sub, edges[id])
	}
	if !sameComponents(components(n, edges), components(n, sub)) {
		rp.fail("spanner does not connect exactly the input's components")
	}
	a := newAdjList(n, sub)
	in := newAdjList(n, edges)
	worst := 0.0
	for i := 0; i < sources; i++ {
		u := int32(r.intn(n))
		if len(in.to[u]) == 0 {
			continue
		}
		dist := a.dijkstra(u)
		for j, v := range in.to[u] {
			st := float64(dist[v]) / float64(in.w[u][j])
			if dist[v] == inf {
				st = math.Inf(1)
			}
			worst = math.Max(worst, st)
		}
	}
	// The envelope the repository's own tests hold the weighted
	// construction to: stretch 24k+4 covers Theorem 3.3's constants.
	if bound := float64(24*spannerK + 4); worst > bound {
		rp.fail("spanner edge stretch %.2f exceeds the O(k) envelope %.0f", worst, bound)
	}
	return worst
}
