// Package engine assembles a complete multichip system — topology, routing
// tables, switches, links, endpoints, the wireless fabric and a traffic
// source — and drives the cycle-accurate simulation loop.
//
// # Sharded execution
//
// The engine has one step loop, and it always runs over shards. The grid
// is partitioned into horizontal row bands; each shard owns the switches,
// links, NIs, and WIs whose switches fall in its band, plus the wireless
// sub-channels hosted by its switches. Config.EngineShards <= 1 builds a
// single shard that owns everything: it has no boundary links, its NI
// hooks call the engine directly, its WIs defer nothing, and its barrier
// is a plain function call. That is the serial engine. EngineShards > 1
// splits the same loop across worker goroutines while keeping the output
// byte-identical to one shard — the same Result JSON and the same packet
// trace at every shard count, pinned by the determinism matrix in
// determinism_test.go and the committed digests in golden_test.go.
//
// Ownership is single-writer: a component's pipeline state is only mutated
// by its owning shard's goroutine. With more than one shard, the three
// cross-shard interactions are handled as follows:
//
//   - Boundary wired links (endpoints in different shards) run in mailbox
//     mode: the source shard retires flits into a parity ping-pong buffer
//     (written at cycle t, drained by the destination shard at t+1 — the
//     same cycle a one-shard Deliver would land them), and credits flow the
//     opposite way through a mirrored buffer. See noc.Link.SetMailbox.
//   - Wireless fabric side effects (transmit accounting, fault drops,
//     backlog bookkeeping) are deferred into per-shard operation logs
//     during the parallel sweep and replayed serially between phases,
//     stable-sorted by WI switch ID so the merge reproduces the one-shard
//     sweep order exactly. See core.ReplayShardOps.
//   - Endpoint-side events (delivery, route classification, watchdog
//     injection tracking) are logged per shard during the endpoint phase
//     and replayed stable-sorted by endpoint index — again the one-shard
//     sweep order.
//
// At every shard count a cycle runs S0 → P1 → S1 → P2 → S2: faults,
// watchdog, and wireless launch (S0, serial); pipeline sweeps and link
// delivery per shard (P1, barrier); fabric-op replay and wireless delivery
// (S1, serial); endpoint ticks per shard (P2, barrier); event replay,
// memory replies, and traffic generation (S2, serial). With one shard the
// logs stay empty and the replays do nothing. With more, the one-cycle
// mailbox deferral is invisible because it matches the link-latency
// timing, and the replay merges are invisible because each log preserves
// per-component order and the sorts restore the global sweep order.
//
// Params.FullTick is not a shard count: it builds one shard but swaps the
// step loop for tickAll, a separate serial reference loop that ticks every
// switch, link and endpoint every cycle and ignores the activity sets.
//
// Picking a shard count: shards split rows, so they only help when the
// per-cycle pipeline work dominates the serial phases and the barrier —
// large grids (16+ chips) at moderate-to-high load on enough cores. Small
// or idle systems are faster on one shard, and EngineShards is clamped to
// the row count. Shards compose
// with run-level parallelism (internal/exp's worker pool): shard a single
// big run, pool many small ones.
//
// # Event-horizon fast-forward
//
// When the system is quiescent — every shard's active sets empty, plus
// quiet boundary mailboxes when there are several shards — no component can change state
// until some scheduled future event fires. Run computes that event
// horizon, a conservative lower bound on the earliest cycle anything can
// happen, and jumps e.now there, skipping the inert cycles entirely
// (Result.IdleCyclesSkipped counts them).
//
// The horizon is the minimum over every source of future activity, each
// answering through a small interface so the engine never guesses:
//
//   - traffic.Source.NextEventCycle — the next cycle the source might
//     emit. Memoryless random sources return now+1 (they might fire any
//     cycle); phased application profiles return the next phase boundary
//     while in a zero-rate phase. Clamped to the generation window.
//   - the memory reply heap's earliest readyAt,
//   - core.Fabric.NextLaunchCycle / NextDeliveryCycle / NextFaultCycle —
//     the MAC's next possible turn start (rotate burns control energy
//     every turn and therefore always returns now+1; turn-queue policies
//     with empty queues return the earliest outage end), in-flight
//     wireless arrivals, and the fault schedule's next event,
//   - the liveness watchdog's deadline, so a wedged packet still trips
//     the age bound at the identical cycle.
//
// Correctness does not rest on the horizon being tight — only on it never
// being too far: every skipped cycle must be one the every-cycle engine
// would have spent doing pure idle accounting, which CatchUp reproduces
// in closed form. Any unsure component simply returns now+1 and the
// engine steps normally. The claim is pinned, not assumed:
// TestFastForwardByteIdentical runs the whole determinism matrix with
// fast-forward on and off at shard counts {serial,1,2,4} and requires the
// same Result JSON and the same packet trace, with the telemetry fields
// (idle_cycles_skipped, drain_cycles_*) as the only sanctioned delta.
//
// The same machinery ends the drain window early: once generation has
// stopped and the horizon is sim.Never, no packet can ever move again,
// so Run exits the drain loop immediately (Result.DrainCyclesUsed /
// DrainCyclesConfigured record the early exit). Params.EveryCycle — the
// wimcsim/wimcbench -every-cycle flag — disables the fast-forward and is
// the benchmark reference path (FullTick implies it).
package engine
