// Package partition provides graph partitioning for distributing rows of a
// sparse matrix across processes. It stands in for METIS in the paper's
// pipeline: a multilevel recursive-bisection partitioner with heavy-edge
// matching coarsening, BFS region-growing initial bisection, and
// Fiduccia-Mattheyses-style boundary refinement. Simple block and grid
// partitioners are also provided for structured problems and tests.
package partition

import (
	"fmt"
	"math/rand"
	"slices"

	"southwell/internal/sparse"
)

// graph is an edge-weighted, vertex-weighted undirected graph in adjacency
// (CSR) form, the working representation inside the multilevel scheme.
type graph struct {
	n    int
	xadj []int
	adj  []int
	ew   []float64
	vw   []int
}

func (g *graph) totalVW() int {
	t := 0
	for _, w := range g.vw {
		t += w
	}
	return t
}

// Options tunes the multilevel partitioner.
type Options struct {
	// Imbalance is the allowed relative deviation of a side from its target
	// weight in each bisection's refinement (default 0.03, METIS-like). It
	// bounds each bisection only: recursive bisection compounds the
	// deviations, so final parts can stray much further from n/k.
	Imbalance float64
	// CoarsenTo stops coarsening when the graph has at most this many
	// vertices (default 96).
	CoarsenTo int
	// RefinePasses is the number of FM passes per level (default 4).
	RefinePasses int
	// Seed drives the randomized matching order.
	Seed int64
	// Rand, when non-nil, supplies the matching-order stream directly
	// instead of one derived from Seed, letting a caller thread a single
	// explicitly seeded stream through partitioning and later randomized
	// stages. The partitioner consumes from it deterministically.
	Rand *rand.Rand
}

// rng returns the caller-provided stream, or one seeded from Seed. The +1
// keeps the derived stream distinct from other Seed consumers in a run.
func (o Options) rng() *rand.Rand {
	if o.Rand != nil {
		return o.Rand
	}
	return rand.New(rand.NewSource(o.Seed + 1))
}

func (o Options) withDefaults() Options {
	if o.Imbalance <= 0 {
		o.Imbalance = 0.03
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 96
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 4
	}
	return o
}

// Partition splits the adjacency graph of a into k parts, returning the
// part id of each row. It panics if k <= 0 and returns the trivial
// partition for k == 1. Each bisection's refinement keeps its two sides
// within Options.Imbalance of their target weights, and the weighted edge
// cut is heuristically minimized. The bound does not carry over to the
// parts: recursive bisection compounds each level's deviation (0.34 on the
// scaled 512x512 Poisson grid at k = 8192).
func Partition(a *sparse.CSR, k int, opts Options) []int {
	if k <= 0 {
		panic(fmt.Sprintf("partition: k = %d", k))
	}
	opts = opts.withDefaults()
	part := make([]int, a.N)
	if k == 1 {
		return part
	}
	if k >= a.N {
		// At least as many parts as rows: the multilevel scheme cannot give
		// every part a vertex, and its recursion would strand arbitrary
		// parts empty. Deterministic degenerate answer instead: row i →
		// part i. For k > a.N parts a.N..k-1 necessarily stay empty;
		// Validate reports them to callers that require k non-empty parts.
		for i := range part {
			part[i] = i
		}
		return part
	}
	verts := make([]int, a.N)
	for i := range verts {
		verts[i] = i
	}
	newWorkspace(a, opts).recursiveBisect(verts, k, 0, part)
	repairEmpty(part, k)
	return part
}

// repairEmpty reassigns rows so that no part in [0, k) is empty. At high
// part counts (parts approaching rows) recursive bisection can hand a
// subset fewer vertices than its part budget and strand parts without any
// row; the layout layer rejects such partitions outright. Repair is
// deterministic: empty parts are filled in ascending id order, each taking
// the highest-index row of the currently largest part that still has more
// than one row (ties broken toward the lowest donor id). A no-op on
// partitions with no empty parts, so moderate-k results are unchanged.
func repairEmpty(part []int, k int) {
	sizes := make([]int, k)
	for _, p := range part {
		sizes[p]++
	}
	if !slices.Contains(sizes, 0) {
		return
	}
	// byPart lists each part's rows in ascending index order, part p's
	// from start[p]; a donor gives away its tail. Only parts with more
	// than one row donate, so a part never empties, and a filled part
	// (one row) never donates.
	start := make([]int, k+1)
	for p, sz := range sizes {
		start[p+1] = start[p] + sz
	}
	byPart := make([]int, len(part))
	next := slices.Clone(start[:k])
	for i, p := range part {
		byPart[next[p]] = i
		next[p]++
	}
	for e := range sizes {
		if sizes[e] != 0 {
			continue
		}
		donor, best := -1, 1
		for p, sz := range sizes {
			if sz > best {
				donor, best = p, sz
			}
		}
		if donor < 0 {
			return // fewer rows than parts: not repairable (k >= n is handled above)
		}
		sizes[donor]--
		part[byPart[start[donor]+sizes[donor]]] = e
		sizes[e] = 1
	}
}

// workspace is the scratch one Partition call allocates once and reuses
// across all of its bisections.
//
// Bit-identity contract, pinned by TestPartitionGolden: committed results
// were produced from these exact part vectors, which depend on more than
// the algorithm. The rng must be consumed draw for draw: per coarsening
// level the Intn sequence of rng.Perm(n), per initial bisection one
// Intn(n), left subtree before right. And coarse edge weights must be
// summed in a fixed order: from zero, over a coarse vertex's members
// lowest index first, each member's edges in adjacency order.
type workspace struct {
	opts Options
	rng  *rand.Rand
	a    *sparse.CSR // the matrix whose rows are partitioned
	// levels[d] is coarsening depth d of the current bisection: levels[0]
	// is the induced subgraph, levels[d+1] is levels[d] contracted through
	// levels[d].cmap. All depths of one bisection are live at once. Their
	// buffers only grow, so once the first (largest) bisection has sized
	// them the remaining bisections allocate nothing.
	levels []*level
	local  []int // row → induced-subgraph index; -1 outside the subset
	right  []int // side-1 vertices during the stable split of verts
	// order is the random visiting order of coarsen; behind the read
	// cursor it is reused as rep, the lowest-index member of each coarse
	// vertex.
	order []int
	match []int
	pos   []int // coarse-adjacency slot of each coarse neighbour of the row being built
	queue []int
	seen  []bool
}

// level is one coarsening depth: its graph, the map of its vertices to the
// next depth's, and its bisection labels.
type level struct {
	g    graph
	cmap []int
	side []int
}

// grow returns s with length n, reallocating only when its capacity is
// short. The contents are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset sizes g for n vertices and up to maxEdges adjacency entries,
// leaving the adjacency empty.
func (g *graph) reset(n, maxEdges int) {
	g.n = n
	g.xadj = grow(g.xadj, n+1)
	g.xadj[0] = 0
	g.vw = grow(g.vw, n)
	g.adj = grow(g.adj, maxEdges)[:0]
	g.ew = grow(g.ew, maxEdges)[:0]
}

func newWorkspace(a *sparse.CSR, opts Options) *workspace {
	n := a.N
	w := &workspace{
		opts:  opts,
		rng:   opts.rng(),
		a:     a,
		local: make([]int, n),
		right: make([]int, 0, n),
		order: make([]int, n),
		match: make([]int, n),
		pos:   make([]int, n),
		queue: make([]int, 0, n),
		seen:  make([]bool, n),
	}
	for i := range w.local {
		w.local[i] = -1
	}
	return w
}

// level returns the buffers of depth d, creating them on first use.
func (w *workspace) level(d int) *level {
	if d == len(w.levels) {
		w.levels = append(w.levels, new(level))
	}
	return w.levels[d]
}

// recursiveBisect partitions the subgraph induced by verts into k parts
// labeled base..base+k-1. verts is reordered in place: each bisection
// splits it stably into its side-0 and side-1 vertices.
func (w *workspace) recursiveBisect(verts []int, k, base int, part []int) {
	if k == 1 {
		for _, v := range verts {
			part[v] = base
		}
		return
	}
	kl := k / 2
	kr := k - kl
	w.induce(verts)
	side := w.bisect(0, float64(kl)/float64(k))
	right := w.right[:0]
	nl := 0
	for i, v := range verts {
		if side[i] == 0 {
			verts[nl] = v
			nl++
		} else {
			right = append(right, v)
		}
	}
	copy(verts[nl:], right)
	w.recursiveBisect(verts[:nl], kl, base, part)
	w.recursiveBisect(verts[nl:], kr, base+kl, part)
}

// induce extracts the adjacency graph of the rows verts of the matrix into
// levels[0]: vertex i is row verts[i] with unit weight, and an edge of
// weight |a_ij| joins each off-diagonal entry whose row and column are both
// in verts.
func (w *workspace) induce(verts []int) {
	a := w.a
	ne := 0
	for i, v := range verts {
		w.local[v] = i
		ne += a.RowPtr[v+1] - a.RowPtr[v]
	}
	s := &w.level(0).g
	s.reset(len(verts), ne)
	for i, v := range verts {
		s.vw[i] = 1
		cols, vals := a.Row(v)
		for k, j := range cols {
			l := w.local[j]
			if j == v || l < 0 {
				continue
			}
			s.adj = append(s.adj, l)
			wt := vals[k]
			if wt < 0 {
				wt = -wt
			}
			s.ew = append(s.ew, wt)
		}
		s.xadj[i+1] = len(s.adj)
	}
	for _, v := range verts {
		w.local[v] = -1
	}
}

// bisect labels each vertex of levels[d].g with side 0 or 1, side 0
// receiving ~frac of the total vertex weight, via multilevel coarsening.
// The labels live in levels[d].side.
func (w *workspace) bisect(d int, frac float64) []int {
	lv := w.levels[d]
	g := &lv.g
	lv.side = grow(lv.side, g.n)
	if g.n > w.opts.CoarsenTo && w.coarsen(d) {
		cside := w.bisect(d+1, frac)
		for v, c := range lv.cmap[:g.n] {
			lv.side[v] = cside[c]
		}
	} else {
		w.growBisection(g, lv.side, frac)
	}
	refine(g, lv.side, frac, w.opts)
	return lv.side
}

// coarsen contracts a heavy-edge matching of levels[d].g into
// levels[d+1].g, recording the vertex map in levels[d].cmap. It reports
// false, without contracting, when matching stalls (the coarse graph would
// keep 9/10 of the vertices, e.g. on star graphs).
func (w *workspace) coarsen(d int) bool {
	lv := w.levels[d]
	g := &lv.g
	n := g.n
	// The draws of rng.Perm(n), written into reused scratch.
	order := w.order[:n]
	for i := 0; i < n; i++ {
		j := w.rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = i
	}
	match := w.match[:n]
	for i := range match {
		match[i] = -1
	}
	lv.cmap = grow(lv.cmap, n)
	cmap := lv.cmap
	// At most one coarse vertex is created per visited vertex, so rep[nc]
	// only overwrites entries of order already read.
	rep := order
	nc := 0
	for i := 0; i < n; i++ {
		v := order[i]
		if match[v] >= 0 {
			continue
		}
		best := -1
		bestW := -1.0
		for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
			u := g.adj[e]
			if u != v && match[u] < 0 && g.ew[e] > bestW {
				bestW = g.ew[e]
				best = u
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
			cmap[v] = nc
			cmap[best] = nc
			rep[nc] = min(v, best)
		} else {
			match[v] = v
			cmap[v] = nc
			rep[nc] = v
		}
		nc++
	}
	if nc >= n*9/10 {
		return false
	}

	c := &w.level(d + 1).g
	// Each of the n-nc matched pairs drops its joining edge in both
	// directions, so on a symmetric graph this capacity is never exceeded.
	c.reset(nc, len(g.adj)-2*(n-nc))
	pos := w.pos[:nc]
	for i := range pos {
		pos[i] = -1
	}
	for cv := 0; cv < nc; cv++ {
		members := [2]int{rep[cv], match[rep[cv]]}
		nm := 2
		if members[1] == members[0] {
			nm = 1
		}
		rowStart := len(c.adj)
		c.vw[cv] = 0
		for _, v := range members[:nm] {
			c.vw[cv] += g.vw[v]
			for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
				cu := cmap[g.adj[e]]
				if cu == cv {
					continue
				}
				p := pos[cu]
				if p < rowStart {
					p = len(c.adj)
					pos[cu] = p
					c.adj = append(c.adj, cu)
					c.ew = append(c.ew, 0)
				}
				c.ew[p] += g.ew[e]
			}
		}
		c.xadj[cv+1] = len(c.adj)
	}
	return true
}

// growBisection grows side 0 by BFS from a pseudo-peripheral vertex until
// it holds ~frac of the vertex weight.
func (w *workspace) growBisection(g *graph, side []int, frac float64) {
	for i := range side {
		side[i] = 1
	}
	if g.n == 0 {
		return
	}
	target := int(frac * float64(g.totalVW()))
	if target <= 0 {
		target = 1
	}
	start := w.pseudoPeripheral(g, w.rng.Intn(g.n))
	seen := w.seen[:g.n]
	clear(seen)
	queue := append(w.queue[:0], start)
	seen[start] = true
	grown := 0
	for head := 0; head < len(queue) && grown < target; head++ {
		v := queue[head]
		side[v] = 0
		grown += g.vw[v]
		for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
			u := g.adj[e]
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	// Disconnected graphs: if BFS exhausted before reaching the target,
	// sweep remaining vertices in index order.
	for v := 0; v < g.n && grown < target; v++ {
		if side[v] == 1 {
			side[v] = 0
			grown += g.vw[v]
		}
	}
}

// pseudoPeripheral runs two BFS sweeps to find a far-apart start vertex:
// each sweep restarts from the last vertex the previous one reached.
func (w *workspace) pseudoPeripheral(g *graph, start int) int {
	far := start
	seen := w.seen[:g.n]
	for sweep := 0; sweep < 2; sweep++ {
		clear(seen)
		queue := append(w.queue[:0], far)
		seen[far] = true
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
				u := g.adj[e]
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		far = queue[len(queue)-1]
	}
	return far
}

// refine performs FM-style passes: repeatedly move the boundary vertex with
// the best cut gain to the other side, subject to the balance constraint,
// keeping the best configuration seen in each pass.
func refine(g *graph, side []int, frac float64, opts Options) {
	total := g.totalVW()
	target0 := float64(total) * frac
	lo := int(target0 * (1 - opts.Imbalance))
	hi := int(target0*(1+opts.Imbalance)) + 1

	w0 := 0
	for v := 0; v < g.n; v++ {
		if side[v] == 0 {
			w0 += g.vw[v]
		}
	}

	gain := func(v int) float64 {
		ext, inn := 0.0, 0.0
		for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
			if side[g.adj[e]] == side[v] {
				inn += g.ew[e]
			} else {
				ext += g.ew[e]
			}
		}
		return ext - inn
	}

	for pass := 0; pass < opts.RefinePasses; pass++ {
		moved := false
		// One greedy sweep over boundary vertices.
		for v := 0; v < g.n; v++ {
			onBoundary := false
			for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
				if side[g.adj[e]] != side[v] {
					onBoundary = true
					break
				}
			}
			if !onBoundary {
				continue
			}
			gv := gain(v)
			if gv <= 0 {
				continue
			}
			// Balance check for moving v to the other side.
			nw0 := w0
			if side[v] == 0 {
				nw0 -= g.vw[v]
			} else {
				nw0 += g.vw[v]
			}
			if nw0 < lo || nw0 > hi {
				continue
			}
			side[v] = 1 - side[v]
			w0 = nw0
			moved = true
		}
		if !moved {
			break
		}
	}
}

// Block returns the contiguous block partition: rows split into k nearly
// equal ranges in natural order (the paper's δ offsets for structured
// cases and a baseline for the multilevel partitioner).
func Block(n, k int) []int {
	part := make([]int, n)
	for i := 0; i < n; i++ {
		part[i] = i * k / n
		if part[i] >= k {
			part[i] = k - 1
		}
	}
	return part
}

// Grid2D partitions an nx-by-ny grid (row-major ids) into a px-by-py
// process grid.
func Grid2D(nx, ny, px, py int) []int {
	part := make([]int, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			pxi := ix * px / nx
			pyi := iy * py / ny
			part[iy*nx+ix] = pyi*px + pxi
		}
	}
	return part
}

// Stats summarizes partition quality.
type Stats struct {
	K         int
	MinSize   int
	MaxSize   int
	AvgSize   float64
	EdgeCut   float64 // sum of |a_ij| over cut edges (each edge once)
	CutEdges  int
	Imbalance float64 // MaxSize / AvgSize - 1
}

// Quality computes balance and weighted edge-cut statistics of part.
func Quality(a *sparse.CSR, part []int, k int) Stats {
	sizes := make([]int, k)
	for _, p := range part {
		sizes[p]++
	}
	s := Stats{K: k, MinSize: a.N, MaxSize: 0}
	for _, sz := range sizes {
		if sz < s.MinSize {
			s.MinSize = sz
		}
		if sz > s.MaxSize {
			s.MaxSize = sz
		}
	}
	s.AvgSize = float64(a.N) / float64(k)
	s.Imbalance = float64(s.MaxSize)/s.AvgSize - 1
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for kk, j := range cols {
			if j > i && part[j] != part[i] {
				s.CutEdges++
				w := vals[kk]
				if w < 0 {
					w = -w
				}
				s.EdgeCut += w
			}
		}
	}
	return s
}

// Validate checks that part assigns every row a part id in [0, k) and that
// every part is non-empty; it returns an error describing the first
// violation.
func Validate(part []int, n, k int) error {
	if len(part) != n {
		return fmt.Errorf("partition: length %d, want %d", len(part), n)
	}
	seen := make([]bool, k)
	for i, p := range part {
		if p < 0 || p >= k {
			return fmt.Errorf("partition: row %d has part %d, want [0,%d)", i, p, k)
		}
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("partition: part %d is empty", p)
		}
	}
	return nil
}
