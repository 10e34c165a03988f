package main

import (
	"bufio"
	"fmt"
	"math"
	"os"

	spanhop "repro"
)

// The benchmark makes its own inputs from --seed with its own
// generator, so that a change to the program's generators cannot
// change what is measured, and so that the checkers know every edge
// without asking the program.

// rng is splitmix64: tiny, fast and stable across Go releases.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range stream {
		r.s = r.s*1099511628211 ^ uint64(c)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// multiScale draws a weight base^(U·scales), at least 1: weights that
// span many orders of magnitude.
func multiScale(r *rng, base, scales float64) int64 {
	w := int64(math.Pow(base, r.float()*scales))
	if w < 1 {
		w = 1
	}
	return w
}

// gridEdges returns the side×side 4-neighbour grid; vertex (row, col)
// is row*side+col. weight draws each edge's weight.
func gridEdges(side int, weight func() int64) []spanhop.Edge {
	edges := make([]spanhop.Edge, 0, 2*side*(side-1))
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := int32(r*side + c)
			if c+1 < side {
				edges = append(edges, spanhop.Edge{U: v, V: v + 1, W: weight()})
			}
			if r+1 < side {
				edges = append(edges, spanhop.Edge{U: v, V: v + int32(side), W: weight()})
			}
		}
	}
	return edges
}

// rmatEdges returns a recursive-matrix graph on 2^scale vertices with
// m distinct edges and the classic skew (0.57, 0.19, 0.19, 0.05): a
// low-diameter graph with heavy-tailed degrees and isolated vertices.
func rmatEdges(r *rng, scale, m int, weight func() int64) []spanhop.Edge {
	seen := make(map[[2]int32]bool, m)
	edges := make([]spanhop.Edge, 0, m)
	for len(edges) < m {
		var u, v int32
		for bit := scale - 1; bit >= 0; bit-- {
			switch p := r.float(); {
			case p < 0.57:
			case p < 0.76:
				v |= 1 << bit
			case p < 0.95:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		edges = append(edges, spanhop.Edge{U: u, V: v, W: weight()})
	}
	return edges
}

// writeDIMACS writes a 9th DIMACS challenge .gr file: 1-indexed, each
// undirected edge as two arcs, as road networks are published.
func writeDIMACS(path string, n int, edges []spanhop.Edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "c road-shaped grid, multi-scale weights\np sp %d %d\n", n, 2*len(edges))
	for _, e := range edges {
		fmt.Fprintf(w, "a %d %d %d\na %d %d %d\n", e.U+1, e.V+1, e.W, e.V+1, e.U+1, e.W)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeEdgeList writes the program's text edge-list format, which the
// server reads for a file-backed graph registration.
func writeEdgeList(path string, n int, edges []spanhop.Edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "spanhop-graph/v1 %d %d 1\n", n, len(edges))
	for _, e := range edges {
		fmt.Fprintf(w, "%d %d %d\n", e.U, e.V, e.W)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gridPairs draws count query pairs on a side×side grid, a third each
// near (grid offset at most 4), middle (L1 offset side/8..side/4) and
// far (uniform endpoints).
func gridPairs(r *rng, side, count int) [][2]int32 {
	clamp := func(x int) int {
		return max(0, min(side-1, x))
	}
	pairs := make([][2]int32, 0, count)
	for i := 0; i < count; i++ {
		sr, sc := r.intn(side), r.intn(side)
		var tr, tc int
		switch i % 3 {
		case 0: // near
			tr, tc = clamp(sr+r.intn(9)-4), clamp(sc+r.intn(9)-4)
		case 1: // middle
			span := side/8 + r.intn(side/8+1)
			dr := r.intn(span + 1)
			dc := span - dr
			if r.intn(2) == 0 {
				dr = -dr
			}
			if r.intn(2) == 0 {
				dc = -dc
			}
			tr, tc = clamp(sr+dr), clamp(sc+dc)
		default: // far
			tr, tc = r.intn(side), r.intn(side)
		}
		s, t := int32(sr*side+sc), int32(tr*side+tc)
		if s == t {
			t = (t + 1) % int32(side*side)
		}
		pairs = append(pairs, [2]int32{s, t})
	}
	return pairs
}
