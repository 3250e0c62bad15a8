package route

import (
	"fmt"
	"slices"
	"sort"

	"wimc/internal/sim"
	"wimc/internal/topo"
)

// CheckDeadlockFree verifies that the routing function cannot deadlock under
// wormhole switching by building the channel dependency graph (CDG) and
// checking it for cycles (Dally & Seitz). A channel is a directed
// switch-to-switch hop; channel (u→v) depends on (v→w) whenever some route
// traverses u→v→w consecutively. Acyclic CDG ⇒ deadlock-free routing.
//
// On wireless topologies the check models the simulator's VC phase classes:
// virtual channels are partitioned between pre-wireless and post-wireless
// travel, so a mesh hop is a different channel before and after the
// packet's wireless hop, and wireless hops form their own class. This
// layering is what makes wireless shortcut routing safe.
//
// All switch pairs are considered as source/destination, which over-covers
// the actual endpoint-attached switches (conservative).
//
// The walk memoizes per destination: routing is memoryless, so the channel
// sequence from an intermediate state (switch, wireless phase) toward d is
// the same whichever source reached it, and an already-visited state means
// its whole suffix is already in the dependency graph. One walk therefore
// stops at the first visited state (recording only the dependency into it),
// which bounds the total work per destination by the state count — O(n)
// rather than O(n × path length).
//
// Everything the walk touches is slice-backed. Channels get dense IDs in
// the order of the (u, v, class) key (see channels), so the cycle search
// starts from channels in the same order whatever the numbering; the
// dependency lists are threaded through flat arrays (see depGraph); the
// walk toward d reads a gathered copy of column d of Next; and a state
// already visited toward d reuses the channel its first walk took
// (without that memo the check takes about 15% longer). The check is
// O(n²) per table plus one binary search per visited state, with about
// 4.3 MB of scratch at 64 chips (1088 switches, 128 WIs), where it takes
// about 50 ms on a 2-vCPU Xeon guest.
func CheckDeadlockFree(g *topo.Graph, t *Tables) error {
	return CheckDeadlockFreeUnion(g, t)
}

// CheckDeadlockFreeUnion verifies deadlock freedom over the union of
// several routing functions sharing one physical network — the multi-class
// case, where flits routed by different class tables occupy the same
// channels concurrently and a hold-and-wait chain may cross tables. Every
// table's routes are walked into ONE channel dependency graph and the
// union must be acyclic; per-table acyclicity alone would not rule out a
// cycle assembled from dependencies of different classes.
func CheckDeadlockFreeUnion(g *topo.Graph, tables ...*Tables) error {
	n := g.SwitchCount()
	phased := g.HasWireless()
	ch := newChannels(n, tables)
	cdg := newDepGraph(ch)

	// State key: switch*2 + phase, valid for the current destination epoch
	// of the current table. walkStamp flags states of the in-progress walk
	// so a routing loop is still detected (a visited-state break must mean
	// "suffix reaches d"); stateChan is the channel a state's walk took.
	visited := make([]int32, 2*n)
	walkStamp := make([]int32, 2*n)
	stateChan := make([]int32, 2*n)
	col := make([]sim.SwitchID, n)
	var walkSeq int32
	var chain []int32

	for ti, t := range tables {
		for d := 0; d < n; d++ {
			// Epochs must not collide across tables: each table's walk
			// memoizes its own suffixes only.
			epoch := int32(ti*n + d + 1)
			// The walks read column d in switch order; one gather of it
			// beats chasing each hop through a different row once the
			// tables outgrow the cache: without it the check takes about
			// 25% longer at 256 chips (the same at 64).
			for s, row := range t.Next {
				col[s] = row[d]
			}
			for s := 0; s < n; s++ {
				if s == d {
					continue
				}
				walkSeq++
				chain = chain[:0]
				prevChan := int32(-1)
				cur := sim.SwitchID(s)
				phase := 0
				for cur != sim.SwitchID(d) {
					st := int(cur)*2 + phase
					if visited[st] == epoch {
						// Suffix already walked: only the entry
						// dependency is new.
						cdg.add(prevChan, stateChan[st])
						break
					}
					nxt := col[cur]
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
					c := ch.id(cur, nxt, class)
					cdg.add(prevChan, c)
					if walkStamp[st] == walkSeq {
						return fmt.Errorf("route: routing loop from %d to %d", s, d)
					}
					walkStamp[st] = walkSeq
					stateChan[st] = c
					chain = append(chain, int32(st))
					cdg.used[c] = true
					if wl {
						phase = 1
					}
					prevChan = c
					cur = nxt
				}
				// The walk reached d (or a state that does): its states'
				// suffixes are now fully recorded.
				for _, st := range chain {
					visited[st] = epoch
				}
			}
		}
	}
	if c := cdg.findCycle(); c >= 0 {
		u, v, class := ch.hop(c)
		return fmt.Errorf("route: channel dependency cycle through hop %d->%d (class %d)", u, v, class)
	}
	return nil
}

// channels numbers the channels the tables can use densely. The distinct
// next hops any table takes out of switch u are hops[start[u]:start[u+1]],
// ascending, and channel (u, hops[start[u]+i], class) is
// 3*(start[u]+i) + class — so IDs ascend in (u, v, class) order, the order
// of the sparse key (u*n+v)*3+class they replace.
type channels struct {
	start []int32
	hops  []sim.SwitchID
}

func newChannels(n int, tables []*Tables) *channels {
	ch := &channels{start: make([]int32, n+1)}
	listed := make([]int32, n) // listed[v] == u+1: v is already a hop of u
	for u := 0; u < n; u++ {
		ch.start[u] = int32(len(ch.hops))
		for _, t := range tables {
			for _, v := range t.Next[u] {
				if v != sim.NoSwitch && int(v) != u && listed[v] != int32(u+1) {
					listed[v] = int32(u + 1)
					ch.hops = append(ch.hops, v)
				}
			}
		}
		slices.Sort(ch.hops[ch.start[u]:])
	}
	ch.start[n] = int32(len(ch.hops))
	return ch
}

// count returns the size of the channel ID space.
func (ch *channels) count() int { return 3 * len(ch.hops) }

// id returns the channel of hop u->v in class; v must be a hop of u.
func (ch *channels) id(u, v sim.SwitchID, class int) int32 {
	i, _ := slices.BinarySearch(ch.hops[ch.start[u]:ch.start[u+1]], v)
	return 3*(ch.start[u]+int32(i)) + int32(class)
}

// hop decodes a channel ID.
func (ch *channels) hop(c int32) (u, v sim.SwitchID, class int) {
	h := c / 3
	// The switch whose hop range holds h: the last u with start[u] <= h.
	u = sim.SwitchID(sort.Search(len(ch.start), func(i int) bool { return ch.start[i] > h }) - 1)
	return u, ch.hops[h], int(c % 3)
}

// depScan is the dependency-list length past which membership tests use a
// bitset instead of a scan.
const depScan = 8

// depGraph is the channel dependency graph. Channel c's dependencies are
// a list in discovery order threaded through to/next from first[c] to
// last[c]; the cycle search follows them in that order. Channel IDs carry
// no destination, so the same (prev, next) pair recurs across destination
// epochs and across class tables; add drops the repeats, keeping the CDG
// free of parallel edges. A list longer than depScan gets a bitset over
// the channels out of the switch its channel enters (every dependency of
// c is one of them), so the long lists of channels into WIs, which fan
// out to every other WI, stay O(1) to test.
//
// Most channels need no bitset: at 256 chips (4352 switches, 512 WIs)
// most are WI-to-WI wireless hops with a few dependencies each. A bitset
// for every channel, even at one bit per hop out of the entered switch,
// costs the check there 1.3x the time and 1.85x the memory (1.6-1.7 s
// and 111 MB against 1.1-1.4 s and 60 MB on a 2-vCPU Xeon guest; the same
// time at 64 chips); scanning alone takes 12.7 s. Cutoffs from 4 to 32
// time the same.
type depGraph struct {
	ch          *channels
	used        []bool
	first, last []int32 // list ends, -1 when empty
	to, next    []int32
	bitsAt      []int32 // offset of c's bitset in bits, -1 if none
	bits        []uint64
}

func newDepGraph(ch *channels) *depGraph {
	nc := ch.count()
	dg := &depGraph{
		ch:     ch,
		used:   make([]bool, nc),
		first:  make([]int32, nc),
		last:   make([]int32, nc),
		bitsAt: make([]int32, nc),
	}
	for c := range dg.first {
		dg.first[c], dg.last[c], dg.bitsAt[c] = -1, -1, -1
	}
	return dg
}

// add records that channel prev waits on channel c (no-op for prev < 0).
func (dg *depGraph) add(prev, c int32) {
	if prev < 0 {
		return
	}
	if off := dg.bitsAt[prev]; off >= 0 {
		if !dg.mark(prev, off, c) {
			return
		}
	} else {
		size := 0
		for e := dg.first[prev]; e >= 0; e = dg.next[e] {
			if dg.to[e] == c {
				return
			}
			size++
		}
		if size == depScan {
			// The channel enters switch v: its dependencies are channels
			// out of v, 3*(start[v+1]-start[v]) IDs from 3*start[v].
			v := dg.ch.hops[prev/3]
			span := 3 * (dg.ch.start[v+1] - dg.ch.start[v])
			at := int32(len(dg.bits))
			dg.bits = append(dg.bits, make([]uint64, (span+63)/64)...)
			dg.bitsAt[prev] = at
			for e := dg.first[prev]; e >= 0; e = dg.next[e] {
				dg.mark(prev, at, dg.to[e])
			}
			dg.mark(prev, at, c)
		}
	}
	e := int32(len(dg.to))
	dg.to = append(dg.to, c)
	dg.next = append(dg.next, -1)
	if dg.last[prev] >= 0 {
		dg.next[dg.last[prev]] = e
	} else {
		dg.first[prev] = e
	}
	dg.last[prev] = e
}

// mark sets c's bit in prev's bitset at off, reporting whether it was clear.
func (dg *depGraph) mark(prev, off, c int32) bool {
	rel := c - 3*dg.ch.start[dg.ch.hops[prev/3]]
	w, bit := &dg.bits[off+rel/64], uint64(1)<<(rel%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// findCycle runs an iterative DFS over the used channels in ascending ID
// order and returns the channel at which it first closes a cycle, or -1.
// With a cycle present, which cycle the DFS trips over first — and
// therefore the error text — depends on traversal order, so the start
// order is fixed (found by wimclint's detorder when it ranged a map).
func (dg *depGraph) findCycle() int32 {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(dg.used))
	type frame struct {
		c    int32
		next int32 // next dependency edge to follow, -1 when done
	}
	var stack []frame
	for start, used := range dg.used {
		if !used || color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{c: int32(start), next: dg.first[start]})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next >= 0 {
				nc := dg.to[f.next]
				f.next = dg.next[f.next]
				switch color[nc] {
				case gray:
					return nc
				case white:
					color[nc] = gray
					stack = append(stack, frame{c: nc, next: dg.first[nc]})
				}
				continue
			}
			color[f.c] = black
			stack = stack[:len(stack)-1]
		}
	}
	return -1
}
