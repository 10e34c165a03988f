package main

import (
	"container/heap"
	"math"

	spanhop "repro"
)

// The checkers below are written apart from the program: they use
// none of its graph, search or dynamic-update code, only the edge
// lists the benchmark generated itself. Their time is never inside a
// measured interval.

// inf is the checkers' "unreachable" distance.
const inf = int64(math.MaxInt64)

// adjList is an adjacency list; duplicate pairs keep every copy (a
// shortest path uses the lightest one anyway).
type adjList struct {
	to [][]int32
	w  [][]int64
}

func newAdjList(n int, edges []spanhop.Edge) *adjList {
	a := &adjList{to: make([][]int32, n), w: make([][]int64, n)}
	for _, e := range edges {
		a.to[e.U] = append(a.to[e.U], e.V)
		a.w[e.U] = append(a.w[e.U], e.W)
		a.to[e.V] = append(a.to[e.V], e.U)
		a.w[e.V] = append(a.w[e.V], e.W)
	}
	return a
}

type heapItem struct {
	d int64
	v int32
}

type minHeap []heapItem

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *minHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dijkstra returns the distance from src to every vertex (inf when
// unreachable), with lazy deletion on a binary heap.
func (a *adjList) dijkstra(src int32) []int64 {
	dist := make([]int64, len(a.to))
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	h := &minHeap{{0, src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		if it.d > dist[it.v] {
			continue
		}
		for i, u := range a.to[it.v] {
			if nd := it.d + a.w[it.v][i]; nd < dist[u] {
				dist[u] = nd
				heap.Push(h, heapItem{nd, u})
			}
		}
	}
	return dist
}

// unionFind is a disjoint-set forest with path halving and union by
// size.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) {
	a, b = u.find(a), u.find(b)
	if a == b {
		return
	}
	if u.size[a] < u.size[b] {
		a, b = b, a
	}
	u.parent[b] = a
	u.size[a] += u.size[b]
}

// components labels every vertex with its union-find root.
func components(n int, edges []spanhop.Edge) []int32 {
	uf := newUnionFind(n)
	for _, e := range edges {
		uf.union(e.U, e.V)
	}
	comp := make([]int32, n)
	for v := range comp {
		comp[v] = uf.find(int32(v))
	}
	return comp
}

// sameComponents reports whether two labelings induce the same
// partition of the vertices.
func sameComponents(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	ab := map[int32]int32{}
	ba := map[int32]int32{}
	for v := range a {
		if x, ok := ab[a[v]]; ok && x != b[v] {
			return false
		}
		if x, ok := ba[b[v]]; ok && x != a[v] {
			return false
		}
		ab[a[v]], ba[b[v]] = b[v], a[v]
	}
	return true
}

// replica mirrors the edge set a stream of mutation batches produces:
// the checker's own copy of what the server's graph should be.
type replica struct {
	n int
	w map[[2]int32]int64
}

func pairKey(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func newReplica(n int, edges []spanhop.Edge) *replica {
	r := &replica{n: n, w: make(map[[2]int32]int64, len(edges))}
	for _, e := range edges {
		r.w[pairKey(e.U, e.V)] = e.W
	}
	return r
}

func (r *replica) has(u, v int32) bool { _, ok := r.w[pairKey(u, v)]; return ok }

func (r *replica) weight(u, v int32) int64 { return r.w[pairKey(u, v)] }

func (r *replica) insert(u, v int32, w int64) { r.w[pairKey(u, v)] = w }

func (r *replica) remove(u, v int32) { delete(r.w, pairKey(u, v)) }

// adj materialises the current edge set for searching.
func (r *replica) adj() *adjList {
	edges := make([]spanhop.Edge, 0, len(r.w))
	for k, w := range r.w {
		edges = append(edges, spanhop.Edge{U: k[0], V: k[1], W: w})
	}
	return newAdjList(r.n, edges)
}

// envelope checks one approximate answer against the exact distance:
// the same connectivity, and lo·d ≤ got ≤ hi·d. It returns the ratio
// got/d (1 for d = 0 or an unreachable pair).
func envelope(got, exact int64, lo, hi float64) (ratio float64, ok bool) {
	if exact == inf || got == spanhop.InfDist {
		return 1, exact == inf && got == spanhop.InfDist
	}
	if exact == 0 {
		return 1, got == 0
	}
	ratio = float64(got) / float64(exact)
	// A relative slack of 1e-9 absorbs float rounding of the bounds.
	return ratio, ratio >= lo*(1-1e-9) && ratio <= hi*(1+1e-9)
}
