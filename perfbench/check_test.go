package main

import (
	"testing"

	spanhop "repro"
)

// bruteForce returns all-pairs distances by Floyd–Warshall.
func bruteForce(n int, edges []spanhop.Edge) [][]int64 {
	d := make([][]int64, n)
	for i := range d {
		d[i] = make([]int64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for _, e := range edges {
		if e.W < d[e.U][e.V] {
			d[e.U][e.V], d[e.V][e.U] = e.W, e.W
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k] != inf && d[k][j] != inf && d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

// tinyGraph draws a random multigraph on n ≤ 9 vertices, often
// disconnected, with parallel edges of different weights.
func tinyGraph(r *rng) (int, []spanhop.Edge) {
	n := 1 + r.intn(9)
	var edges []spanhop.Edge
	for i := r.intn(2 * n); i > 0; i-- {
		u, v := int32(r.intn(n)), int32(r.intn(n))
		if u != v {
			edges = append(edges, spanhop.Edge{U: u, V: v, W: 1 + int64(r.intn(20))})
		}
	}
	return n, edges
}

func TestDijkstraMatchesBruteForce(t *testing.T) {
	r := newRNG(1, "dijkstra")
	for trial := 0; trial < 500; trial++ {
		n, edges := tinyGraph(r)
		want := bruteForce(n, edges)
		a := newAdjList(n, edges)
		for s := 0; s < n; s++ {
			got := a.dijkstra(int32(s))
			for t2 := 0; t2 < n; t2++ {
				if got[t2] != want[s][t2] {
					t.Fatalf("trial %d: d(%d,%d) = %d, brute force %d (edges %v)", trial, s, t2, got[t2], want[s][t2], edges)
				}
			}
		}
	}
}

func TestComponentsMatchBruteForce(t *testing.T) {
	r := newRNG(2, "components")
	for trial := 0; trial < 500; trial++ {
		n, edges := tinyGraph(r)
		want := bruteForce(n, edges)
		comp := components(n, edges)
		for s := 0; s < n; s++ {
			for t2 := 0; t2 < n; t2++ {
				if (comp[s] == comp[t2]) != (want[s][t2] != inf) {
					t.Fatalf("trial %d: same component(%d,%d) = %v, reachable %v", trial, s, t2, comp[s] == comp[t2], want[s][t2] != inf)
				}
			}
		}
		// A relabelling is the same partition; merging two classes is not.
		shifted := make([]int32, n)
		for v := range comp {
			shifted[v] = comp[v] + 100
		}
		if !sameComponents(comp, shifted) {
			t.Fatalf("trial %d: relabelled partition reported different", trial)
		}
		if n >= 2 && comp[0] != comp[1] {
			merged := append([]int32(nil), comp...)
			for v := range merged {
				if merged[v] == comp[1] {
					merged[v] = comp[0]
				}
			}
			if sameComponents(comp, merged) {
				t.Fatalf("trial %d: merged partition reported equal", trial)
			}
		}
	}
}

func TestReplicaTracksMutations(t *testing.T) {
	r := newRNG(3, "replica")
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.intn(7)
		rep := newReplica(n, nil)
		naive := map[[2]int32]int64{}
		for step := 0; step < 30; step++ {
			u, v := int32(r.intn(n)), int32(r.intn(n))
			if u == v {
				continue
			}
			if rep.has(u, v) && r.intn(2) == 0 {
				rep.remove(v, u)
				delete(naive, [2]int32{min(u, v), max(u, v)})
			} else {
				w := 1 + int64(r.intn(9))
				rep.insert(u, v, w)
				naive[[2]int32{min(u, v), max(u, v)}] = w
			}
		}
		var edges []spanhop.Edge
		for k, w := range naive {
			edges = append(edges, spanhop.Edge{U: k[0], V: k[1], W: w})
		}
		want := bruteForce(n, edges)
		a := rep.adj()
		for s := 0; s < n; s++ {
			got := a.dijkstra(int32(s))
			for t2 := 0; t2 < n; t2++ {
				if got[t2] != want[s][t2] {
					t.Fatalf("trial %d: replica d(%d,%d) = %d, want %d", trial, s, t2, got[t2], want[s][t2])
				}
			}
		}
	}
}

func TestEnvelope(t *testing.T) {
	cases := []struct {
		got, exact int64
		ok         bool
	}{
		{100, 100, true},
		{119, 100, true},
		{121, 100, false},
		{89, 100, false},
		{spanhop.InfDist, inf, true},
		{spanhop.InfDist, 5, false},
		{5, inf, false},
		{0, 0, true},
		{1, 0, false},
	}
	for _, c := range cases {
		if _, ok := envelope(c.got, c.exact, 0.9, 1.2); ok != c.ok {
			t.Errorf("envelope(%d, %d) ok = %v, want %v", c.got, c.exact, ok, c.ok)
		}
	}
}
