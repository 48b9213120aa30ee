package graph

import (
	"fmt"
	"sort"
	"strings"
)

// CanonicalKey returns a string that is identical for isomorphic graphs
// (same vertex count and the same multiset of weighted adjacencies under
// some vertex relabeling) and distinct otherwise. It brute-forces all
// vertex permutations, so it is intended for the small (n <= 8) induced
// topologies Blink bins GPU allocations into.
func CanonicalKey(g *Graph) string {
	n := g.N
	if n == 0 {
		return "empty"
	}
	if n > 10 {
		panic("graph: CanonicalKey supports at most 10 vertices")
	}

	// Aggregate capacity per ordered pair and type, and render each cell
	// once: cells[u*n+v] is the text the pair (u, v) contributes.
	caps := make([][4]float64, n*n)
	for _, e := range g.Edges {
		caps[e.From*n+e.To][e.Type] += e.Cap
	}
	cells := make([]string, n*n)
	for i, c := range caps {
		cells[i] = fmt.Sprintf("%.3f/%.3f/%.3f/%.3f;", c[0], c[1], c[2], c[3])
	}

	// The key is the least rendering over all vertex orders. A rendering is
	// the concatenation of the off-diagonal cells in row-major order, and
	// every cell ends in its only ';', so no cell is a proper prefix of
	// another: two renderings order as their first differing cells do. That
	// lets each order be compared with the best so far cell by cell, with
	// early exit, and only the winner be concatenated.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := append([]int(nil), perm...) // the first order rec visits
	less := func() bool {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if x, y := cells[perm[i]*n+perm[j]], cells[best[i]*n+best[j]]; x != y {
					return x < y
				}
			}
		}
		return false
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if less() {
				copy(best, perm)
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	var b strings.Builder
	fmt.Fprintf(&b, "n%d|", n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.WriteString(cells[best[i]*n+best[j]])
			}
		}
	}
	return b.String()
}

// Subsets enumerates all k-element subsets of [0, n), in lexicographic
// order, invoking fn with a reused slice (copy it if retained).
func Subsets(n, k int, fn func(sub []int)) {
	if k < 0 || k > n {
		return
	}
	sub := make([]int, k)
	var rec func(start, idx int)
	rec = func(start, idx int) {
		if idx == k {
			fn(sub)
			return
		}
		for v := start; v <= n-(k-idx); v++ {
			sub[idx] = v
			rec(v+1, idx+1)
		}
	}
	rec(0, 0)
}

// UniqueClass describes one isomorphism class of induced subgraphs.
type UniqueClass struct {
	Key            string
	Representative []int   // lexicographically smallest member subset
	Members        [][]int // all member subsets
}

// UniqueInducedClasses bins every k-vertex induced subgraph of g into
// isomorphism classes and returns them sorted by representative.
func UniqueInducedClasses(g *Graph, k int) []UniqueClass {
	classes := map[string]*UniqueClass{}
	Subsets(g.N, k, func(sub []int) {
		cp := append([]int(nil), sub...)
		key := CanonicalKey(g.InducedSubgraph(cp))
		c, ok := classes[key]
		if !ok {
			c = &UniqueClass{Key: key, Representative: cp}
			classes[key] = c
		}
		c.Members = append(c.Members, cp)
	})
	out := make([]UniqueClass, 0, len(classes))
	for _, c := range classes {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Representative, out[j].Representative
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	return out
}
