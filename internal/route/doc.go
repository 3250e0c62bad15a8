// Package route computes forwarding state for the multichip network.
//
// # Table modes
//
// Two table constructions are provided (DESIGN.md §5.2):
//
//   - RouteShortest (default): true per-source shortest paths with
//     deterministic tie-breaking that prefers horizontal wired hops, then
//     vertical wired hops, then I/O links, then wireless hops. Inside a chip mesh this degenerates to XY routing,
//     which is deadlock-free; global deadlock safety is verified with an
//     explicit channel-dependency-graph check.
//
//   - RouteTree: all traffic follows a single shortest-path tree rooted at
//     a seeded-random switch — the paper's literal description, which is
//     trivially deadlock-free because tree paths have no cyclic channel
//     dependencies.
//
// Wireless interfaces form a full graph: every WI pair is one hop at a
// configurable routing weight. A hop between two WIs that a wired edge
// also joins is a wired hop (Tables.IsWireless): it costs no more over
// the wire, and the engine forwards it through the wired port.
//
// # Construction cost
//
// Shortest-path tables run one search per destination. Arc weights are
// small positive integers, so each search is a Dial bucket queue (a
// binary heap when an arc outweighs the switch count). The wireless full graph is never
// materialized: a search relaxes it once, from the first WI it expands,
// since every later WI is at least as far away. Destinations go to the
// worker pool in blocks of 64, and a block fills Next row segment by row
// segment. Tree tables keep container/heap, because heap pop order picks
// each switch's tree parent. The deadlock check numbers channels densely
// and keeps its dependency graph in slices (see CheckDeadlockFree).
//
// Sequential costs for the 64-chip wireless preset (1088 switches, 128
// WIs) on a 2-vCPU Xeon guest: tables about 45 ms and 10 MB, most of it
// the two n×n tables (BenchmarkBuildClasses64); the deadlock check about
// 50 ms and 4.3 MB (BenchmarkCheckDeadlockFree64). oracle_test.go keeps
// the heap-per-destination build and the map-keyed check as references.
//
// # Class tables
//
// On hybrid packages (interposer wiring plus the wireless overlay) a single
// static table forces every injection onto one medium choice forever. The
// multi-class layer (BuildClasses) instead builds one table per fabric
// class, sharing the parallel shortest-path machinery:
//
//   - ClassWirelessPreferred (class 0): the full-graph shortest-path table —
//     byte-identical to the single table Build produces, so the default
//     remains exactly the pre-class behavior.
//
//   - ClassWiredOnly (class 1): shortest paths over the wired edges only
//     (the wireless full graph left out). On a hybrid this is the
//     interposer underlay; distant traffic that class 0 sends over one
//     wireless hop instead walks the wires.
//
// ClassTables.TxWI precomputes, for every (source, destination) switch
// pair, the host switch of the transmitting WI on the class-0 route (or
// sim.NoSwitch when that route never goes wireless) — the O(1) lookup the
// adaptive selector needs to read the right transmitter's load.
//
// # Selectors
//
// A Selector picks the route class of each packet at injection time.
// StaticSelector always answers ClassWirelessPreferred — the single-table
// behavior, proven byte-identical by the engine's
// TestStaticSelectorEquivalence. AdaptiveSelector spills wireless-bound
// packets onto the wired class while the transmitting WI is saturated
// (TX-backlog, MAC turn-queue and wired-credit signals, supplied live by
// the engine through a LoadProbe) and pulls them back when it drains;
// per-WI hysteresis bounds the flip rate so routes cannot flap per packet,
// and a class is fixed at injection, so one packet's flits always follow
// one table.
//
// # Deadlock freedom of the union
//
// With per-packet class selection, flits routed by different tables occupy
// the same physical channels concurrently, so acyclicity of each table's
// channel dependency graph alone is not sufficient: a hold-and-wait chain
// may cross tables. CheckDeadlockFreeUnion therefore walks every class
// table over one shared CDG — a channel depends on another if ANY class
// routes them consecutively — and requires the union to be acyclic. Both
// class tables derive from the same rank ordering (horizontal before
// vertical before I/O), so their wired segments obey one turn discipline
// and the union check passes on every shipped preset; it runs at engine
// build time exactly like the single-table check did.
package route
