package route

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"wimc/internal/config"
	"wimc/internal/exp/pool"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

// Tables holds next-hop forwarding state at switch granularity.
type Tables struct {
	Mode config.RoutingMode
	// Next[s][d] is the next switch on the route from s to d; Next[d][d] = d.
	Next [][]sim.SwitchID
	// Dist[s][d] is the routed path cost (sum of hop weights).
	Dist [][]int32
	// Root is the tree root in RouteTree mode, or sim.NoSwitch.
	Root sim.SwitchID
	// wi[s] is the index of the WI hosted on switch s, or -1. It is nil
	// when the table routes no wireless hop (wired architectures and the
	// wired-only class).
	wi []int32
	// wiredWI has bit i*nwi+j set when a wired edge joins WIs i and j of
	// the nwi WIs: the engine forwards such a hop through the wired port.
	wiredWI []uint64
	nwi     int
	// workers bounds the pool used while the tables are built.
	workers int
}

// arc is one directed adjacency used by the router computation.
type arc struct {
	to     sim.SwitchID
	weight int32
	rank   int32 // tie-break priority: lower is preferred
}

// Tie-break ranks.
const (
	rankHorizontal = iota
	rankVertical
	rankIO
	rankWireless
)

// Build computes forwarding tables for the graph using its configuration,
// fanning table fills across runtime.GOMAXPROCS(0) workers (tables are
// byte-identical to a sequential build: every destination's column is
// computed independently and written to disjoint entries).
func Build(g *topo.Graph) (*Tables, error) {
	return BuildWorkers(g, 0)
}

// BuildWorkers is Build with an explicit worker-pool bound: <= 0 means
// runtime.GOMAXPROCS(0), 1 forces a fully sequential build.
func BuildWorkers(g *topo.Graph, workers int) (*Tables, error) {
	return buildSingle(g, workers, true)
}

// buildSingle computes one forwarding table. includeWireless selects
// whether the wireless full graph joins the adjacency (true reproduces
// Build exactly); false yields the wired-only class table of a hybrid.
func buildSingle(g *topo.Graph, workers int, includeWireless bool) (*Tables, error) {
	// Memory logic dies are endpoints, not routers: paths may start or end
	// there but never pass through (their wide-I/O spurs would otherwise
	// become mesh shortcuts).
	transit := make([]bool, g.SwitchCount())
	for i, n := range g.Nodes {
		transit[i] = n.Kind != topo.KindMemLogic
	}
	t := &Tables{
		Mode:    g.Cfg.Routing,
		Root:    sim.NoSwitch,
		workers: workers,
	}
	var wis []sim.SwitchID // WI switches joined by the wireless full graph
	if includeWireless && g.HasWireless() {
		t.wi = make([]int32, g.SwitchCount())
		for i := range t.wi {
			t.wi[i] = -1
		}
		for i, s := range g.WISwitches {
			t.wi[s] = int32(i)
		}
		t.nwi = len(g.WISwitches)
		t.wiredWI = make([]uint64, (t.nwi*t.nwi+63)/64)
		for _, e := range g.Edges {
			if i, j := int(t.wi[e.A]), int(t.wi[e.B]); i >= 0 && j >= 0 {
				t.setWiredWI(i*t.nwi + j)
				t.setWiredWI(j*t.nwi + i)
			}
		}
		wis = append(wis, g.WISwitches...)
		slices.Sort(wis)
	}
	ww := int32(g.Cfg.WirelessHopWeight)
	if ww < 1 {
		ww = 1
	}
	var err error
	switch g.Cfg.Routing {
	case config.RouteShortest:
		if g.Cfg.Arch == config.ArchSubstrate {
			// Single serial links around the chip ring deadlock under
			// unrestricted minimal routing; use chip-level dimension order.
			err = t.buildSubstrateHier(g, adjacency(g, nil, 0))
		} else {
			err = t.buildShortest(g, adjacency(g, nil, 0), transit, wis, ww)
		}
	case config.RouteTree:
		err = t.buildTree(g, adjacency(g, wis, ww), transit)
	default:
		err = fmt.Errorf("route: unknown routing mode %q", g.Cfg.Routing)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// IsWireless reports whether the hop from u to v crosses the wireless
// fabric: both switches host WIs and no wired edge joins them. A route may
// reach a wired neighbor over either arc at equal cost, and the engine
// forwards such a hop through the wired port, so it is a wired hop.
func (t *Tables) IsWireless(u, v sim.SwitchID) bool {
	if t.wi == nil || u == v || t.wi[u] < 0 || t.wi[v] < 0 {
		return false
	}
	k := int(t.wi[u])*t.nwi + int(t.wi[v])
	return t.wiredWI[k/64]&(1<<(k%64)) == 0
}

func (t *Tables) setWiredWI(k int) { t.wiredWI[k/64] |= 1 << (k % 64) }

// Path returns the switch sequence from s to d (inclusive).
func (t *Tables) Path(s, d sim.SwitchID) []sim.SwitchID {
	path := []sim.SwitchID{s}
	cur := s
	for cur != d {
		nxt := t.Next[cur][d]
		if nxt == sim.NoSwitch || nxt == cur {
			return nil
		}
		path = append(path, nxt)
		cur = nxt
		if len(path) > len(t.Next)+1 {
			return nil // defensive: would indicate a routing loop
		}
	}
	return path
}

// HopCount returns the number of hops from s to d, or -1 if unreachable.
func (t *Tables) HopCount(s, d sim.SwitchID) int {
	p := t.Path(s, d)
	if p == nil {
		return -1
	}
	return len(p) - 1
}

// adjacency constructs the directed arcs of the wired edges, each
// switch's in tie-break order (rank, then target ID). When wis (ascending)
// is non-empty, every WI switch also gets an arc of weight ww to every
// other WI — the wireless full graph — after its wired arcs: wireless
// ranks last, so this is the same order a sort over all arcs would give.
// All switches' arcs share one backing array.
func adjacency(g *topo.Graph, wis []sim.SwitchID, ww int32) [][]arc {
	n := g.SwitchCount()
	deg := make([]int, n)
	for _, e := range g.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	for _, s := range wis {
		deg[s] += len(wis) - 1
	}
	adj := make([][]arc, n)
	flat := make([]arc, 0, 2*len(g.Edges)+len(wis)*len(wis))
	for s := range adj {
		adj[s] = flat[len(flat) : len(flat) : len(flat)+deg[s]]
		flat = flat[:len(flat)+deg[s]]
	}
	for _, e := range g.Edges {
		rank := int32(rankIO)
		switch e.Kind {
		case topo.EdgeMesh, topo.EdgeInterposer:
			if g.Nodes[e.A].GY == g.Nodes[e.B].GY {
				rank = rankHorizontal
			} else {
				rank = rankVertical
			}
		}
		w := int32(e.Latency)
		if w < 1 {
			w = 1
		}
		adj[e.A] = append(adj[e.A], arc{to: e.B, weight: w, rank: rank})
		adj[e.B] = append(adj[e.B], arc{to: e.A, weight: w, rank: rank})
	}
	for _, as := range adj {
		slices.SortFunc(as, func(a, b arc) int {
			if a.rank != b.rank {
				return int(a.rank - b.rank)
			}
			return int(a.to - b.to)
		})
	}
	for _, a := range wis {
		for _, b := range wis {
			if b != a {
				adj[a] = append(adj[a], arc{to: b, weight: ww, rank: rankWireless})
			}
		}
	}
	return adj
}

// destBlock is the number of destinations one buildShortest work item
// covers: its row segments Next[s][d0:d0+destBlock] are contiguous.
const destBlock = 64

// buildShortest fills the tables with per-source shortest paths: for every
// destination d a reverse single-source search yields dist(·, d); the next
// hop from s is the first arc (in tie-break order: wired arcs, then the
// wireless arcs by ascending target) on a shortest path. adj holds only the
// wired arcs; wis (ascending) are the WI switches of the wireless full
// graph, every pair one hop of weight ww.
//
// Destinations are processed in blocks of destBlock per worker-pool item.
// A block runs its searches one destination at a time, scattering each
// distance vector into its column of Dist, then fills Next row segment by
// row segment; blocks write disjoint columns, so the tables are identical
// for any worker count.
func (t *Tables) buildShortest(g *topo.Graph, adj [][]arc, transit []bool, wis []sim.SwitchID, ww int32) error {
	n := g.SwitchCount()
	t.Next = newTable(n, sim.NoSwitch)
	t.Dist = newDist(n)
	maxW := int32(1)
	if len(wis) > 0 {
		maxW = ww
	}
	for _, as := range adj {
		for _, a := range as {
			maxW = max(maxW, a.weight)
		}
	}
	blocks := (n + destBlock - 1) / destBlock
	_, err := pool.ForEach(t.workers, blocks, func(b int) error {
		d0, d1 := b*destBlock, min((b+1)*destBlock, n)
		sp := newSearch(n, maxW)
		// star[k] is the distance of the first WI the search toward d0+k
		// expanded (-1: none), via[k] the lowest-ID WI at that distance.
		var star [destBlock]int32
		var via [destBlock]sim.SwitchID
		for d := d0; d < d1; d++ {
			star[d-d0] = sp.run(sim.SwitchID(d), adj, transit, t.wi, wis, ww)
			via[d-d0] = sim.NoSwitch
			for _, w := range wis {
				if sp.dist[w] == star[d-d0] {
					via[d-d0] = w
					break
				}
			}
			for s, ds := range sp.dist {
				t.Dist[s][d] = ds
			}
		}
		// failAt[k] is the first source whose route toward d0+k failed;
		// the lowest failing destination's first failing source is the
		// error a per-destination fill would have reported.
		var failAt [destBlock]int
		for k := range failAt {
			failAt[k] = -1
		}
		for s := 0; s < n; s++ {
			next := t.Next[s][d0:d1]
			for k, ds := range t.Dist[s][d0:d1] {
				d := d0 + k
				if s == d {
					next[k] = sim.SwitchID(d)
					continue
				}
				if ds == unreachable {
					if failAt[k] < 0 {
						failAt[k] = s
					}
					continue
				}
				for _, a := range adj[s] {
					if da := t.Dist[a.to][d]; da != unreachable && da+a.weight == ds {
						next[k] = a.to
						break
					}
				}
				// A reachable switch with no wired arc on a shortest path
				// got its distance from the one wireless relaxation (see
				// search.run): ds = star + ww, and the first wireless arc
				// on a shortest path leads to the lowest-ID WI at star.
				if next[k] == sim.NoSwitch && t.wi != nil && t.wi[s] >= 0 && star[k] >= 0 && ds-ww == star[k] {
					next[k] = via[k]
				}
				if next[k] == sim.NoSwitch && failAt[k] < 0 {
					failAt[k] = s
				}
			}
		}
		for k, s := range failAt {
			if s < 0 {
				continue
			}
			if t.Dist[s][d0+k] == unreachable {
				return fmt.Errorf("route: switch %d cannot reach switch %d", s, d0+k)
			}
			return fmt.Errorf("route: no next hop from %d to %d", s, d0+k)
		}
		return nil
	})
	return err
}

// buildTree fills the tables with single-tree routing: a shortest-path tree
// is grown from a seeded-random root and every route follows tree paths.
func (t *Tables) buildTree(g *topo.Graph, adj [][]arc, transit []bool) error {
	n := g.SwitchCount()
	rng := sim.NewRand(g.Cfg.Seed).Derive("route-tree-root")
	// The root must be a transitable switch (not a memory leaf).
	var root sim.SwitchID
	for {
		root = sim.SwitchID(rng.Intn(n))
		if transit[root] {
			break
		}
	}
	t.Root = root

	parent, depth, distRoot := spTree(adj, root, transit)
	for s := 0; s < n; s++ {
		if s != int(root) && parent[s] == sim.NoSwitch {
			return fmt.Errorf("route: tree mode: switch %d unreachable from root %d", s, root)
		}
	}

	// Ancestor test via Euler tour intervals.
	tin, tout := eulerTimes(parent, n, root)
	isAncestor := func(a, b sim.SwitchID) bool { // a ancestor-of-or-equal b
		return tin[a] <= tin[b] && tout[b] <= tout[a]
	}

	t.Next = newTable(n, sim.NoSwitch)
	t.Dist = newDist(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			ss, dd := sim.SwitchID(s), sim.SwitchID(d)
			if ss == dd {
				t.Next[s][d] = dd
				t.Dist[s][d] = 0
				continue
			}
			if isAncestor(ss, dd) {
				// Descend: the next hop is d's ancestor chain child of s.
				c := dd
				for parent[c] != ss {
					c = parent[c]
				}
				t.Next[s][d] = c
			} else {
				t.Next[s][d] = parent[s]
			}
			// Path cost via the lowest common ancestor.
			l := lca(ss, dd, parent, depth, isAncestor)
			t.Dist[s][d] = distRoot[s] + distRoot[d] - 2*distRoot[l]
		}
	}
	return nil
}

func lca(a, b sim.SwitchID, parent []sim.SwitchID, depth []int32,
	isAncestor func(a, b sim.SwitchID) bool) sim.SwitchID {
	for !isAncestor(a, b) {
		a = parent[a]
	}
	_ = depth
	return a
}

const unreachable = int32(math.MaxInt32 / 4)

// search is the scratch of one single-source shortest-path search: the
// distance vector and a priority queue. Arc weights are small positive
// integers, so the queue is a Dial bucket queue — maxW+1 circular buckets
// indexed by distance — while maxW is at most the switch count n.
//
// A Dial search visits every bucket from 0 to its farthest queued
// distance, which can pass the farthest switch by up to maxW (a wireless
// arc queued before a wired path beat it). With maxW <= n those empty
// buckets, like the bucket array, cost no more than the n-entry distance
// vector the search fills anyway. A heavier arc (set by hand; the presets'
// weigh at most 4) would make them dominate, so such searches use a
// binary heap instead, whose pushes cost a log factor: on the 64-chip
// preset a boxing-free binary heap alone builds the tables about 3x slower
// than the bucket queue.
type search struct {
	dist    []int32
	buckets [][]sim.SwitchID // nil selects heap
	heap    distHeap
}

func newSearch(n int, maxW int32) *search {
	sp := &search{dist: make([]int32, n)}
	if int(maxW) <= n {
		sp.buckets = make([][]sim.SwitchID, maxW+1)
	}
	return sp
}

// run fills sp.dist with shortest distances from src over the wired arcs
// adj plus the wireless full graph among wis (ascending; wi[s] >= 0 marks
// them). Nodes with transit[i] == false are only expanded at the source
// (they are endpoints, never intermediate hops). It returns the distance
// of the first WI expanded, or -1 if none was.
//
// Only that first WI relaxes its wireless arcs: every WI expanded later is
// at least as far from src, so its arcs, all of weight ww, cannot shorten
// any distance.
func (sp *search) run(src sim.SwitchID, adj [][]arc, transit []bool, wi []int32, wis []sim.SwitchID, ww int32) int32 {
	dist := sp.dist
	for i := range dist {
		dist[i] = unreachable
	}
	star := int32(-1)
	pending := 0
	push := func(v sim.SwitchID, d int32) {
		dist[v] = d
		pending++
		if sp.buckets == nil {
			heap.Push(&sp.heap, distItem{node: v, dist: d})
		} else {
			b := &sp.buckets[int(d)%len(sp.buckets)]
			*b = append(*b, v)
		}
	}
	expand := func(u sim.SwitchID, du int32) {
		if u != src && !transit[u] {
			return
		}
		for _, a := range adj[u] {
			if nd := du + a.weight; nd < dist[a.to] {
				push(a.to, nd)
			}
		}
		if star < 0 && wi != nil && wi[u] >= 0 {
			star = du
			for _, v := range wis {
				if nd := du + ww; nd < dist[v] {
					push(v, nd)
				}
			}
		}
	}
	push(src, 0)
	if sp.buckets == nil {
		for sp.heap.Len() > 0 {
			it := heap.Pop(&sp.heap).(distItem)
			if it.dist == dist[it.node] {
				expand(it.node, it.dist)
			}
		}
		return star
	}
	// Every queued distance lies in [cur, cur+maxW], so bucket cur mod
	// len(buckets) holds exactly the entries queued at distance cur; an
	// entry whose node has since been queued closer is stale.
	for cur := int32(0); pending > 0; cur++ {
		b := &sp.buckets[int(cur)%len(sp.buckets)]
		for i := 0; i < len(*b); i++ {
			if u := (*b)[i]; dist[u] == cur {
				expand(u, cur)
			}
		}
		pending -= len(*b)
		*b = (*b)[:0]
	}
	return star
}

// spTree grows a shortest-path tree from root, returning parent pointers,
// depths and root distances. Tie-breaks follow the deterministic arc order.
// Non-transit nodes become leaves.
func spTree(adj [][]arc, root sim.SwitchID, transit []bool) (parent []sim.SwitchID, depth, dist []int32) {
	n := len(adj)
	parent = make([]sim.SwitchID, n)
	depth = make([]int32, n)
	dist = make([]int32, n)
	for i := range parent {
		parent[i] = sim.NoSwitch
		dist[i] = unreachable
	}
	dist[root] = 0
	pq := &distHeap{{node: root, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.dist > dist[it.node] {
			continue
		}
		if it.node != root && !transit[it.node] {
			continue
		}
		for _, a := range adj[it.node] {
			nd := it.dist + a.weight
			if nd < dist[a.to] {
				dist[a.to] = nd
				parent[a.to] = it.node
				depth[a.to] = depth[it.node] + 1
				heap.Push(pq, distItem{node: a.to, dist: nd})
			}
		}
	}
	return parent, depth, dist
}

// eulerTimes computes entry/exit times of the tree rooted at root.
func eulerTimes(parent []sim.SwitchID, n int, root sim.SwitchID) (tin, tout []int32) {
	children := make([][]sim.SwitchID, n)
	for c, p := range parent {
		if p != sim.NoSwitch {
			children[p] = append(children[p], sim.SwitchID(c))
		}
	}
	tin = make([]int32, n)
	tout = make([]int32, n)
	var clock int32
	// Iterative DFS to avoid recursion depth concerns.
	type frame struct {
		node sim.SwitchID
		next int
	}
	stack := []frame{{node: root}}
	tin[root] = clock
	clock++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(children[f.node]) {
			c := children[f.node][f.next]
			f.next++
			tin[c] = clock
			clock++
			stack = append(stack, frame{node: c})
			continue
		}
		tout[f.node] = clock
		clock++
		stack = stack[:len(stack)-1]
	}
	return tin, tout
}

func newTable(n int, fill sim.SwitchID) [][]sim.SwitchID {
	t := make([][]sim.SwitchID, n)
	flat := make([]sim.SwitchID, n*n)
	for i := range flat {
		flat[i] = fill
	}
	for i := range t {
		t[i] = flat[i*n : (i+1)*n]
	}
	return t
}

func newDist(n int) [][]int32 {
	t := make([][]int32, n)
	flat := make([]int32, n*n)
	for i := range t {
		t[i] = flat[i*n : (i+1)*n]
	}
	return t
}

type distItem struct {
	node sim.SwitchID
	dist int32
}

type distHeap []distItem

func (h distHeap) Len() int { return len(h) }
func (h distHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}
func (h distHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)   { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

var _ heap.Interface = (*distHeap)(nil)
