package route

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"testing"

	"wimc/internal/config"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

// This file holds the reference route construction and deadlock check:
// a container/heap Dijkstra per destination over an adjacency that
// materializes every wireless arc, filling one column at a time, and a
// channel-dependency check keyed by (u*n+v)*3+class in maps. They are the
// oracles the table build and CheckDeadlockFreeUnion are held to.

// refTables is the reference construction's output.
type refTables struct {
	Next     [][]sim.SwitchID
	Dist     [][]int32
	Root     sim.SwitchID
	wireless map[[2]sim.SwitchID]bool
}

// refAdjacency constructs directed arcs from the wired edges plus (when
// includeWireless) the wireless full graph among WI switches, sorted by
// (rank, target ID), and the set of wireless hops: WI pairs no wired edge
// joins.
func refAdjacency(g *topo.Graph, includeWireless bool) ([][]arc, map[[2]sim.SwitchID]bool) {
	n := g.SwitchCount()
	adj := make([][]arc, n)
	wired := map[[2]sim.SwitchID]bool{}
	for _, e := range g.Edges {
		wired[[2]sim.SwitchID{e.A, e.B}] = true
		wired[[2]sim.SwitchID{e.B, e.A}] = true
		rank := int32(rankIO)
		if e.Kind == topo.EdgeMesh || e.Kind == topo.EdgeInterposer {
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
	wmap := map[[2]sim.SwitchID]bool{}
	if includeWireless {
		ww := int32(g.Cfg.WirelessHopWeight)
		if ww < 1 {
			ww = 1
		}
		for i, a := range g.WISwitches {
			for j, b := range g.WISwitches {
				if i != j {
					adj[a] = append(adj[a], arc{to: b, weight: ww, rank: rankWireless})
					wmap[[2]sim.SwitchID{a, b}] = !wired[[2]sim.SwitchID{a, b}]
				}
			}
		}
	}
	for s := range adj {
		as := adj[s]
		sort.Slice(as, func(i, j int) bool {
			if as[i].rank != as[j].rank {
				return as[i].rank < as[j].rank
			}
			return as[i].to < as[j].to
		})
	}
	return adj, wmap
}

// refDijkstra returns shortest distances from src over the directed arcs;
// non-transit nodes are expanded only at the source.
func refDijkstra(adj [][]arc, src sim.SwitchID, transit []bool) []int32 {
	dist := make([]int32, len(adj))
	for i := range dist {
		dist[i] = unreachable
	}
	dist[src] = 0
	pq := &distHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.dist > dist[it.node] {
			continue
		}
		if it.node != src && !transit[it.node] {
			continue
		}
		for _, a := range adj[it.node] {
			if nd := it.dist + a.weight; nd < dist[a.to] {
				dist[a.to] = nd
				heap.Push(pq, distItem{node: a.to, dist: nd})
			}
		}
	}
	return dist
}

// refBuildSingle is buildSingle over the reference adjacency, with the
// shortest-path fill done one destination column at a time. Tree and
// substrate tables reuse the production fills (their only input that
// changed is the adjacency).
func refBuildSingle(g *topo.Graph, includeWireless bool) (*refTables, error) {
	adj, wmap := refAdjacency(g, includeWireless)
	n := g.SwitchCount()
	transit := make([]bool, n)
	for i, nd := range g.Nodes {
		transit[i] = nd.Kind != topo.KindMemLogic
	}
	t := &Tables{Mode: g.Cfg.Routing, Root: sim.NoSwitch, workers: 1}
	var err error
	switch {
	case g.Cfg.Routing == config.RouteTree:
		err = t.buildTree(g, adj, transit)
	case g.Cfg.Arch == config.ArchSubstrate:
		err = t.buildSubstrateHier(g, adj)
	default:
		t.Next = newTable(n, sim.NoSwitch)
		t.Dist = newDist(n)
		for d := 0; d < n && err == nil; d++ {
			dist := refDijkstra(adj, sim.SwitchID(d), transit)
			for s := 0; s < n; s++ {
				t.Dist[s][d] = dist[s]
				if s == d {
					t.Next[s][d] = sim.SwitchID(d)
					continue
				}
				if dist[s] == unreachable {
					err = fmt.Errorf("route: switch %d cannot reach switch %d", s, d)
					break
				}
				for _, a := range adj[s] {
					if dist[a.to] != unreachable && dist[a.to]+a.weight == dist[s] {
						t.Next[s][d] = a.to
						break
					}
				}
				if t.Next[s][d] == sim.NoSwitch {
					err = fmt.Errorf("route: no next hop from %d to %d", s, d)
					break
				}
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return &refTables{Next: t.Next, Dist: t.Dist, Root: t.Root, wireless: wmap}, nil
}

// refCheckDeadlockFreeUnion is the map-keyed channel-dependency check.
func refCheckDeadlockFreeUnion(g *topo.Graph, tables ...*Tables) error {
	n := g.SwitchCount()
	phased := g.HasWireless()
	chanID := func(u, v sim.SwitchID, class int) int {
		return (int(u)*n+int(v))*3 + class
	}
	deps := map[int][]int{}
	used := map[int]bool{}
	depSeen := map[[2]int]bool{}
	addDep := func(prev, c int) {
		if prev < 0 || depSeen[[2]int{prev, c}] {
			return
		}
		depSeen[[2]int{prev, c}] = true
		deps[prev] = append(deps[prev], c)
	}
	visited := make([]int32, 2*n)
	walkStamp := make([]int32, 2*n)
	var walkSeq int32
	var chain []int32
	for ti, t := range tables {
		for d := 0; d < n; d++ {
			epoch := int32(ti*n + d + 1)
			for s := 0; s < n; s++ {
				if s == d {
					continue
				}
				walkSeq++
				chain = chain[:0]
				prevChan := -1
				cur := sim.SwitchID(s)
				phase := 0
				for cur != sim.SwitchID(d) {
					nxt := t.Next[cur][d]
					if nxt == sim.NoSwitch || nxt == cur {
						return fmt.Errorf("route: no progress from %d toward %d", cur, d)
					}
					class := 0
					wl := phased && t.IsWireless(cur, nxt)
					if phased {
						if wl {
							class = 2
						} else {
							class = phase
						}
					}
					c := chanID(cur, nxt, class)
					addDep(prevChan, c)
					st := int(cur)*2 + phase
					if visited[st] == epoch {
						break
					}
					if walkStamp[st] == walkSeq {
						return fmt.Errorf("route: routing loop from %d to %d", s, d)
					}
					walkStamp[st] = walkSeq
					chain = append(chain, int32(st))
					used[c] = true
					if wl {
						phase = 1
					}
					prevChan = c
					cur = nxt
				}
				for _, st := range chain {
					visited[st] = epoch
				}
			}
		}
	}
	color := map[int]int{}
	type frame struct{ c, next int }
	starts := make([]int, 0, len(used))
	for c := range used {
		starts = append(starts, c)
	}
	sort.Ints(starts)
	for _, start := range starts {
		if color[start] != 0 {
			continue
		}
		stack := []frame{{c: start}}
		color[start] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(deps[f.c]) {
				nc := deps[f.c][f.next]
				f.next++
				switch color[nc] {
				case 1:
					uv := nc / 3
					return fmt.Errorf("route: channel dependency cycle through hop %d->%d (class %d)", uv/n, uv%n, nc%3)
				case 0:
					color[nc] = 1
					stack = append(stack, frame{c: nc})
				}
				continue
			}
			color[f.c] = 2
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// checkAgainstOracle builds g's class tables and compares them, and the
// deadlock verdict, with the references. It returns the verdict.
func checkAgainstOracle(t *testing.T, g *topo.Graph) error {
	t.Helper()
	ct, err := BuildClasses(g, 0)
	ref, rerr := refBuildSingle(g, true)
	if fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("build error %v, reference %v", err, rerr)
	}
	if err != nil {
		return err
	}
	compareTables(t, "class 0", ct.Primary(), ref)
	if ct.MultiClass() {
		wref, werr := refBuildSingle(g, false)
		if werr != nil {
			t.Fatalf("reference wired-only build: %v", werr)
		}
		compareTables(t, "wired-only", ct.Classes[ClassWiredOnly], wref)
	}
	verdict := CheckDeadlockFreeUnion(g, ct.Tables()...)
	want := refCheckDeadlockFreeUnion(g, ct.Tables()...)
	if fmt.Sprint(verdict) != fmt.Sprint(want) {
		t.Fatalf("deadlock verdict %v, reference %v", verdict, want)
	}
	return verdict
}

func compareTables(t *testing.T, name string, got *Tables, want *refTables) {
	t.Helper()
	if !sameTable(got.Next, want.Next) {
		t.Fatalf("%s: Next differs from the reference", name)
	}
	if !sameTable(got.Dist, want.Dist) {
		t.Fatalf("%s: Dist differs from the reference", name)
	}
	if got.Root != want.Root {
		t.Fatalf("%s: root %d, reference %d", name, got.Root, want.Root)
	}
	n := len(got.Next)
	if n > 600 {
		return // the wireless-hop set is checked on the smaller packages
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			a, b := sim.SwitchID(u), sim.SwitchID(v)
			if got.IsWireless(a, b) != want.wireless[[2]sim.SwitchID{a, b}] {
				t.Fatalf("%s: IsWireless(%d, %d) = %v, reference %v",
					name, u, v, got.IsWireless(a, b), !got.IsWireless(a, b))
			}
		}
	}
}

// sameTable reports whether two tables hold the same rows. It is
// reflect.DeepEqual for tables whose rows are all non-nil (newTable and
// newDist never leave one nil), an order of magnitude faster.
func sameTable[T comparable](a, b [][]T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestRouteTablesMatchOracle holds XCYM presets from 1 to 64 chips, in
// every architecture and both routing modes, to the reference tables and
// deadlock check: every chip count up to 16, then square, oblong and
// prime (1×p line) chip grids up to 64 (up to 16 with -short).
func TestRouteTablesMatchOracle(t *testing.T) {
	var sizes []int
	for c := 1; c <= 16; c++ {
		sizes = append(sizes, c)
	}
	if !testing.Short() {
		sizes = append(sizes, 17, 24, 31, 32, 64)
	}
	for _, chips := range sizes {
		for _, arch := range []config.Architecture{
			config.ArchSubstrate, config.ArchInterposer, config.ArchWireless, config.ArchHybrid,
		} {
			for _, mode := range []config.RoutingMode{config.RouteShortest, config.RouteTree} {
				chips, arch, mode := chips, arch, mode
				t.Run(fmt.Sprintf("%d/%s/%s", chips, arch, mode), func(t *testing.T) {
					t.Parallel()
					cfg := config.MustXCYM(chips, config.DefaultStacks(chips), arch)
					cfg.Routing = mode
					g, err := topo.Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := checkAgainstOracle(t, g); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// FuzzRouteTables holds the tables and the deadlock verdict of fuzzed
// packages to the references: chip count, WI density, wireless hop
// weight, wired latencies and µbump thinning all shape the shortest-path
// ties, the wireless relaxation and the cycles the check must find.
func FuzzRouteTables(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(1), uint8(4), uint8(1), uint8(2), uint8(4), uint8(2), uint8(255), false)
	f.Add(uint8(8), uint8(3), uint8(2), uint8(1), uint8(3), uint8(1), uint8(1), uint8(5), uint8(128), true)
	f.Add(uint8(4), uint8(1), uint8(0), uint8(2), uint8(1), uint8(2), uint8(4), uint8(2), uint8(100), false)
	f.Add(uint8(3), uint8(3), uint8(0), uint8(224), uint8(1), uint8(2), uint8(4), uint8(2), uint8(255), false)
	f.Add(uint8(5), uint8(2), uint8(1), uint8(255), uint8(1), uint8(2), uint8(4), uint8(2), uint8(255), false)
	f.Fuzz(func(t *testing.T, chips, archSel, cpwSel, ww, mesh, interposer, serial, wideIO, boundary uint8, tree bool) {
		archs := []config.Architecture{
			config.ArchSubstrate, config.ArchInterposer, config.ArchWireless, config.ArchHybrid,
		}
		c := int(chips)%12 + 1
		cfg := config.MustXCYM(c, config.DefaultStacks(c), archs[int(archSel)%len(archs)])
		if cfg.Arch == config.ArchWireless || cfg.Arch == config.ArchHybrid {
			// Every divisor of the cores per chip is a legal density.
			var divs []int
			for k := 1; k <= cfg.CoresPerChip(); k++ {
				if cfg.CoresPerChip()%k == 0 {
					divs = append(divs, k)
				}
			}
			cfg.CoresPerWI = divs[int(cpwSel)%len(divs)]
			if n := cfg.TotalWIs(); cfg.WirelessChannels > n {
				cfg.WirelessChannels = n
			}
		}
		cfg.WirelessHopWeight = int(ww)%8 + 1
		if ww >= 224 {
			// Heavier than any fuzzed package has switches, where
			// searches use the heap.
			cfg.WirelessHopWeight = 256 + 8*(int(ww)-224)
		}
		cfg.MeshLatency = int(mesh)%6 + 1
		cfg.InterposerLatency = int(interposer)%6 + 1
		cfg.SerialLatency = int(serial)%8 + 1
		cfg.WideIOLatency = int(wideIO)%6 + 1
		cfg.InterposerBoundaryFr = float64(int(boundary)%100+1) / 100
		if tree {
			cfg.Routing = config.RouteTree
		}
		if cfg.Validate() != nil {
			return
		}
		g, err := topo.Build(cfg)
		if err != nil {
			return
		}
		_ = checkAgainstOracle(t, g)
	})
}

// TestBuildErrorMatchesOracle: when several destinations fail, the error
// is the one of the lowest failing destination at its lowest failing
// source, as in a per-destination fill. Switch 1 is a memory die, which
// routes never cross, so it cuts 0 off from 2 and 3, and 4 off from every
// core switch.
func TestBuildErrorMatchesOracle(t *testing.T) {
	g := &topo.Graph{Cfg: config.Default()}
	g.Cfg.Arch = config.ArchInterposer
	for i := 0; i < 5; i++ {
		kind := topo.KindCore
		if i == 1 {
			kind = topo.KindMemLogic
		}
		g.Nodes = append(g.Nodes, topo.Node{ID: sim.SwitchID(i), Kind: kind, GY: i, WI: -1})
	}
	for _, e := range [][2]sim.SwitchID{{0, 1}, {1, 2}, {2, 3}, {1, 4}} {
		g.Edges = append(g.Edges, topo.Edge{A: e[0], B: e[1], Kind: topo.EdgeMesh, Latency: 1})
	}
	err := checkAgainstOracle(t, g)
	if want := "route: switch 2 cannot reach switch 0"; fmt.Sprint(err) != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}
