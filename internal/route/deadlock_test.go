package route

import (
	"slices"
	"testing"

	"wimc/internal/config"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

// ringGraph returns n core switches joined in a wired ring 0-1-…-(n-1)-0.
func ringGraph(n int) *topo.Graph {
	g := &topo.Graph{}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, topo.Node{ID: sim.SwitchID(i), Kind: topo.KindCore, GX: i, WI: -1})
	}
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, topo.Edge{A: sim.SwitchID(i), B: sim.SwitchID((i + 1) % n), Kind: topo.EdgeMesh, Latency: 1})
	}
	return g
}

// handTables returns tables whose next hop from s toward d is next(s, d)
// (Next[d][d] = d).
func handTables(n int, next func(s, d int) sim.SwitchID) *Tables {
	t := &Tables{Next: newTable(n, sim.NoSwitch), Dist: newDist(n), Root: sim.NoSwitch}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				t.Next[s][d] = sim.SwitchID(d)
			} else {
				t.Next[s][d] = next(s, d)
			}
		}
	}
	return t
}

// TestCheckDeadlockFreeRejections pins the exact rejection messages of the
// channel-dependency check: which cycle the DFS reports first depends on
// the channel numbering and the start order, so a change to either shows
// up here as a different hop in the message.
func TestCheckDeadlockFreeRejections(t *testing.T) {
	const n = 4
	ring := ringGraph(n)
	thinned := config.MustXCYM(4, 4, config.ArchInterposer)
	thinned.InterposerBoundaryFr = 0.5
	tg, err := topo.Build(thinned)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := Build(tg)
	if err != nil {
		t.Fatal(err)
	}
	hybrid := config.MustXCYM(4, 4, config.ArchHybrid)
	hybrid.InterposerBoundaryFr = 0.5
	hg, err := topo.Build(hybrid)
	if err != nil {
		t.Fatal(err)
	}
	hct, err := BuildClasses(hg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *topo.Graph
		t    []*Tables
		want string
	}{
		{
			// Every route runs clockwise: the four ring channels wait on
			// each other in a circle.
			name: "clockwise ring",
			g:    ring,
			t:    []*Tables{handTables(n, func(s, _ int) sim.SwitchID { return sim.SwitchID((s + 1) % n) })},
			want: "route: channel dependency cycle through hop 0->1 (class 0)",
		},
		{
			// Routes toward 2 bounce between 0 and 1 and never arrive.
			name: "routing loop",
			g:    ring,
			t: []*Tables{handTables(n, func(s, d int) sim.SwitchID {
				if d == 2 && s < 2 {
					return sim.SwitchID(1 - s)
				}
				return sim.SwitchID((s + 1) % n)
			})},
			want: "route: routing loop from 0 to 2",
		},
		{
			// Switch 1 has no entry toward 3.
			name: "no next hop",
			g:    ring,
			t: []*Tables{handTables(n, func(s, d int) sim.SwitchID {
				if s == 1 && d == 3 {
					return sim.NoSwitch
				}
				if s < d {
					return sim.SwitchID(s + 1)
				}
				return sim.SwitchID(s - 1)
			})},
			want: "route: no progress from 1 toward 3",
		},
		{
			// Thinned µbumps break the interposer's XY regularity.
			name: "thinned interposer",
			g:    tg,
			t:    []*Tables{tt},
			want: "route: channel dependency cycle through hop 27->26 (class 0)",
		},
		{
			// The same thinning on a hybrid: the union of both class
			// tables over the phased channel classes.
			name: "thinned hybrid union",
			g:    hg,
			t:    hct.Tables(),
			want: "route: channel dependency cycle through hop 27->26 (class 0)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckDeadlockFreeUnion(tc.g, tc.t...)
			if err == nil {
				t.Fatalf("accepted, want %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("got %q, want %q", err, tc.want)
			}
		})
	}
}

// TestCheckDeadlockFreeAcceptsLine: dimension-ordered routing on a line
// (a ring with one link unused) has no cyclic dependency.
func TestCheckDeadlockFreeAcceptsLine(t *testing.T) {
	const n = 4
	line := handTables(n, func(s, d int) sim.SwitchID {
		if s < d {
			return sim.SwitchID(s + 1)
		}
		return sim.SwitchID(s - 1)
	})
	if err := CheckDeadlockFree(ringGraph(n), line); err != nil {
		t.Fatal(err)
	}
}

// TestDepGraphDedupAcrossBitsetSwitch: a channel's dependency list keeps
// each dependency once, in discovery order, before and after it grows
// past depScan and switches from scanning to its bitset.
func TestDepGraphDedupAcrossBitsetSwitch(t *testing.T) {
	// Switch 0's one hop enters switch 1, whose hops go to 0 and 2..fan.
	const fan = 4*depScan + 1
	ch := &channels{start: []int32{0, 1, fan + 1}, hops: []sim.SwitchID{1}}
	ch.hops = append(ch.hops, 0)
	for v := 2; v <= fan; v++ {
		ch.hops = append(ch.hops, sim.SwitchID(v))
	}
	dg := newDepGraph(ch)
	prev := ch.id(0, 1, 0)
	var want []int32
	for i := 0; i < 2*depScan; i++ {
		// Every new channel out of switch 1 (by hop, then class), each
		// followed by a repeat of an earlier one.
		c := ch.id(1, ch.hops[1+i/3], i%3)
		dg.add(prev, c)
		want = append(want, c)
		dg.add(prev, want[i/2])
	}
	var got []int32
	for e := dg.first[prev]; e >= 0; e = dg.next[e] {
		got = append(got, dg.to[e])
	}
	if !slices.Equal(got, want) {
		t.Fatalf("dependencies %v, want %v", got, want)
	}
	if dg.bitsAt[prev] < 0 {
		t.Fatalf("a list of %d dependencies has no bitset", len(got))
	}
}
