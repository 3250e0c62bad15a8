package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"wimc/internal/config"
	"wimc/internal/engine"
	"wimc/internal/figures"
	"wimc/internal/route"
	"wimc/internal/store"
	"wimc/internal/topo"
)

// Thread budget: the benchmark is sized for a 2-core host, so no workload
// uses more than two threads of simulation work.
const (
	poolWorkers = 2 // internal/exp pool workers on paper_figs
	runShards   = 2 // engine_shards of sat64's sharded operations
)

// paperFigures are the paper's own figures, regenerated by paper_figs.
var paperFigures = []string{"fig2", "fig3", "fig4", "fig5", "fig6"}

// opOut is what one operation measured.
type opOut struct {
	e2e    map[string]float64 // end-to-end metrics of this operation
	layers map[string]float64 // per-layer metrics, wall-clock figures included (profile rows only when traced)
	digest string             // SHA-256 of the operation's output
	bad    string             // non-empty when a check inside the operation failed
}

// workload is one named benchmark input. op runs one closed-loop
// operation; traced operations run under the CPU profiler and time the
// construction layers separately.
type workload struct {
	name string
	op   func(traced bool) (opOut, error)
	// shardOp, when set, runs the same operation on the sharded step loop.
	// Only traced runs make it, for the rows only that loop has (shardRows).
	shardOp func(traced bool) (opOut, error)
	// seed is the configuration seed the workload runs, derived from the
	// benchmark's --seed; golden digests are keyed by it.
	seed uint64
}

func newWorkload(name string, seed int64, smoke bool, scratch string) (*workload, error) {
	cfgSeed := uint64(1) // config.Default's seed
	if seed > 0 {
		cfgSeed = uint64(seed)
	}
	switch name {
	case "paper_figs":
		return &workload{name: name, seed: cfgSeed, op: func(traced bool) (opOut, error) {
			return paperFigsOp(cfgSeed, smoke, scratch, traced)
		}}, nil
	case "sat64":
		cfg, err := config.XCYM(64, 64, config.ArchWireless)
		if err != nil {
			return nil, err
		}
		cfg.Seed = cfgSeed
		cfg.WarmupCycles, cfg.MeasureCycles = 500, 2500
		if smoke {
			cfg.WarmupCycles, cfg.MeasureCycles = 20, 80
		}
		p := engine.Params{Cfg: cfg, BuildWorkers: 1, Traffic: engine.TrafficSpec{
			Kind: engine.TrafficUniform, Rate: 1.0, MemFraction: 0.2,
		}}
		// The sharded run must give the serial run's Result byte for byte,
		// so both are checked against the same digest.
		sp := p
		sp.Cfg.EngineShards, sp.BuildWorkers = runShards, runShards
		return &workload{name: name, seed: cfgSeed,
			op:      func(traced bool) (opOut, error) { return engineOp(p, traced) },
			shardOp: func(traced bool) (opOut, error) { return engineOp(sp, traced) },
		}, nil
	case "phased16":
		p, err := phasedParams(phasedSeed(seed), smoke)
		if err != nil {
			return nil, err
		}
		return &workload{name: name, seed: p.Cfg.Seed, op: func(traced bool) (opOut, error) {
			return engineOp(p, traced)
		}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have paper_figs, sat64, phased16)", name)
}

// engineOp is one sat64 or phased16 operation: engine.New, then Run.
func engineOp(p engine.Params, traced bool) (opOut, error) {
	out := opOut{e2e: map[string]float64{}, layers: map[string]float64{}}
	if traced {
		if err := timeConstruction(p, out.layers); err != nil {
			return out, err
		}
	}
	runtime.GC()
	alloc0 := totalAlloc()

	cpuNew0 := cpuTime()
	t0 := time.Now()
	e, err := engine.New(p)
	setup := time.Since(t0)
	setupCPU := cpuTime() - cpuNew0
	if err != nil {
		return out, fmt.Errorf("engine.New: %w", err)
	}
	allocNew := totalAlloc() - alloc0
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	live := ms.HeapAlloc

	var res *engine.Result
	run := func() error {
		var err error
		res, err = e.Run()
		return err
	}
	alloc1 := totalAlloc()
	cpu0 := cpuTime()
	t1 := time.Now()
	var split cpuSplit
	if traced {
		split, err = profiled(run)
	} else {
		err = run()
	}
	runWall := time.Since(t1)
	cpu := cpuTime() - cpu0
	if err != nil {
		return out, fmt.Errorf("engine run: %w", err)
	}
	alloc := allocNew + totalAlloc() - alloc1

	b, err := json.Marshal(res)
	if err != nil {
		return out, err
	}
	out.digest = digest(b)

	shards := p.Cfg.EngineShards
	if shards < 1 {
		shards = 1
	}
	out.e2e["cpu_s"] = (setupCPU + cpu).Seconds()
	out.e2e["setup_s"] = setupCPU.Seconds()
	out.e2e["sim_cycles_per_cpu_s"] = float64(res.Cycles) / cpu.Seconds()
	out.e2e["alloc_mb"] = float64(alloc) / 1e6
	out.e2e["live_heap_mb"] = float64(live) / 1e6
	out.layers["wall_s"] = (setup + runWall).Seconds()
	out.layers["sim_cycles_per_s"] = float64(res.Cycles) / runWall.Seconds()
	out.layers["engine.shard_busy_frac"] = cpu.Seconds() / (runWall.Seconds() * float64(shards))
	out.layers["engine.new_share"] = setupCPU.Seconds() / (setupCPU + cpu).Seconds()
	resultLayers([]*engine.Result{res}, out.layers)
	if traced {
		out.bad = profileLayers(split, stepped([]*engine.Result{res}), out.layers)
	}
	return out, nil
}

// timeConstruction times the public construction calls engine.New makes,
// in the order it makes them, and records the topology's size. engine.wire_s
// is filled in later as the remainder of engine.New.
func timeConstruction(p engine.Params, layers map[string]float64) error {
	t := time.Now()
	g, err := topo.BuildWorkers(p.Cfg, p.BuildWorkers)
	if err != nil {
		return fmt.Errorf("topo.BuildWorkers: %w", err)
	}
	layers["topo.build_s"] += time.Since(t).Seconds()
	t = time.Now()
	ct, err := route.BuildClasses(g, p.BuildWorkers)
	if err != nil {
		return fmt.Errorf("route.BuildClasses: %w", err)
	}
	layers["route.tables_s"] += time.Since(t).Seconds()
	t = time.Now()
	if err := route.CheckDeadlockFreeUnion(g, ct.Tables()...); err != nil {
		return fmt.Errorf("route.CheckDeadlockFreeUnion: %w", err)
	}
	layers["route.cdg_check_s"] += time.Since(t).Seconds()
	t = time.Now()
	if _, err := engine.New(p); err != nil {
		return fmt.Errorf("engine.New: %w", err)
	}
	newS := time.Since(t).Seconds()
	layers["engine.wire_s"] += newS - layers["topo.build_s"] - layers["route.tables_s"] - layers["route.cdg_check_s"]
	layers["topo.switches"] += float64(g.SwitchCount())
	layers["topo.links"] += float64(2 * len(g.Edges)) // two directed links per edge, as the engine wires them
	return nil
}

// paperSystems are the package systems the paper's figures simulate: 1, 4
// and 8 chips with 4 memory stacks, under each architecture.
func paperSystems(seed uint64) ([]engine.Params, error) {
	var ps []engine.Params
	for _, chips := range []int{1, 4, 8} {
		for _, arch := range []config.Architecture{config.ArchSubstrate, config.ArchInterposer, config.ArchWireless} {
			cfg, err := config.XCYM(chips, 4, arch)
			if err != nil {
				return nil, err
			}
			cfg.Seed = seed
			ps = append(ps, engine.Params{Cfg: cfg, BuildWorkers: 1, Traffic: engine.TrafficSpec{
				Kind: engine.TrafficUniform, Rate: 1.0, MemFraction: 0.2,
			}})
		}
	}
	return ps, nil
}

// paperFigsOp is one paper_figs operation: build the nine paper systems
// (the set-up), regenerate fig2-fig6 cold through a fresh store, then
// regenerate them warm from the same store, which must run no engine.
func paperFigsOp(seed uint64, smoke bool, scratch string, traced bool) (opOut, error) {
	out := opOut{e2e: map[string]float64{}, layers: map[string]float64{}}
	systems, err := paperSystems(seed)
	if err != nil {
		return out, err
	}
	if traced {
		// engine.wire_s accumulates as each system's New minus its own
		// topology, table and CDG time, so time each system separately.
		for _, p := range systems {
			sys := map[string]float64{}
			if err := timeConstruction(p, sys); err != nil {
				return out, err
			}
			for k, v := range sys {
				out.layers[k] += v
			}
		}
	}
	runtime.GC()
	built := make([]*engine.Engine, len(systems))
	cpuNew0 := cpuTime()
	for i, p := range systems {
		if built[i], err = engine.New(p); err != nil {
			return out, fmt.Errorf("engine.New(%s): %w", p.Cfg.Name, err)
		}
	}
	setupCPU := cpuTime() - cpuNew0
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	live := ms.HeapAlloc
	runtime.KeepAlive(built)

	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return out, err
	}
	opts := figures.Opts{Quick: smoke, Seed: seed, Workers: poolWorkers, Store: st}
	regen := func(tables *[]byte) error {
		for _, id := range paperFigures {
			tb, err := figures.Run(id, opts)
			if err != nil {
				return fmt.Errorf("figures.Run(%s): %w", id, err)
			}
			*tables = append(*tables, tb.Text()...)
		}
		return nil
	}

	runtime.GC()
	alloc0 := totalAlloc()
	cpu0 := cpuTime()
	var cold []byte
	t := time.Now()
	var split cpuSplit
	if traced {
		split, err = profiled(func() error { return regen(&cold) })
	} else {
		err = regen(&cold)
	}
	coldWall := time.Since(t)
	cpu := cpuTime() - cpu0
	alloc := totalAlloc() - alloc0
	if err != nil {
		return out, err
	}
	out.digest = digest(cold)

	keys, err := st.Keys()
	if err != nil {
		return out, err
	}
	before, results, err := snapshot(st, keys)
	if err != nil {
		return out, err
	}

	var warm []byte
	t = time.Now()
	if err := regen(&warm); err != nil {
		return out, err
	}
	warmWall := time.Since(t)
	after, err := st.Keys()
	if err != nil {
		return out, err
	}
	hits := 0
	for _, k := range after {
		fi, err := os.Stat(objectPath(st, k))
		if err == nil && before[k] != nil && os.SameFile(before[k], fi) {
			hits++
		}
	}
	n := float64(len(keys))
	var cycles int64
	for _, r := range results {
		cycles += r.Cycles
	}

	out.e2e["cpu_s"] = cpu.Seconds()
	out.e2e["setup_s"] = setupCPU.Seconds()
	out.e2e["sim_cycles_per_cpu_s"] = float64(cycles) / cpu.Seconds()
	out.e2e["alloc_mb"] = float64(alloc) / 1e6
	out.e2e["live_heap_mb"] = float64(live) / 1e6
	out.layers["wall_s"] = coldWall.Seconds()
	out.layers["sim_cycles_per_s"] = float64(cycles) / coldWall.Seconds()
	out.layers["figures.points"] = n
	out.layers["store.warm_hit_frac"] = float64(hits) / n
	out.layers["store.get_us_per_point"] = warmWall.Seconds() * 1e6 / n
	out.layers["exp.worker_busy_frac"] = cpu.Seconds() / (coldWall.Seconds() * poolWorkers)
	resultLayers(results, out.layers)
	switch {
	case len(after) != len(keys) || hits != len(keys):
		out.bad = fmt.Sprintf("warm pass ran %d of %d points again", len(after)-hits, len(after))
	case digest(warm) != out.digest:
		out.bad = "warm tables differ from cold tables"
	}
	if !traced {
		return out, nil
	}
	if msg := profileLayers(split, stepped(results), out.layers); msg != "" && out.bad == "" {
		out.bad = msg
	}
	out.layers["engine.new_share"] = float64(split.newNS) / float64(split.allNS)
	putMS, err := timePuts(scratch, keys, results)
	if err != nil {
		return out, err
	}
	out.layers["store.put_ms_per_point"] = putMS
	return out, nil
}

// snapshot records each stored object's file identity (a store.Put
// replaces the file, so an unchanged identity proves no engine re-ran the
// point) and loads its Result.
func snapshot(st *store.Store, keys []string) (map[string]os.FileInfo, []*engine.Result, error) {
	files := make(map[string]os.FileInfo, len(keys))
	results := make([]*engine.Result, 0, len(keys))
	for _, k := range keys {
		fi, err := os.Stat(objectPath(st, k))
		if err != nil {
			return nil, nil, err
		}
		files[k] = fi
		r, ok, err := st.Get(k)
		if err != nil || !ok {
			return nil, nil, fmt.Errorf("store.Get(%s): ok=%v err=%v", k, ok, err)
		}
		results = append(results, r)
	}
	return files, results, nil
}

// objectPath mirrors the store's documented layout,
// <dir>/objects/<key[:2]>/<key>.json.
func objectPath(st *store.Store, key string) string {
	return filepath.Join(st.Dir(), "objects", key[:2], key+".json")
}

// timePuts stores results into an empty store, as the cold pass does, and
// returns milliseconds per point.
func timePuts(scratch string, keys []string, results []*engine.Result) (float64, error) {
	dir, err := os.MkdirTemp(scratch, "put-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	for i, k := range keys {
		if err := st.Put(k, results[i]); err != nil {
			return 0, err
		}
	}
	return time.Since(t).Seconds() * 1e3 / float64(len(keys)), nil
}

// resultLayers records the counts and ratios the Results report, summed
// over every result (the paper figures pool their points).
func resultLayers(rs []*engine.Result, layers map[string]float64) {
	var cycles, skipped, drainUsed, drainCfg, gen, inj int64
	var awake float64
	util := map[string]float64{}
	for _, r := range rs {
		cycles += r.Cycles
		skipped += r.IdleCyclesSkipped
		drainUsed += r.DrainCyclesUsed
		drainCfg += r.DrainCyclesConfigured
		gen += r.GeneratedPackets
		inj += r.InjectedPackets
		awake += r.WIAwakeFraction
		for k, v := range r.LinkUtilization {
			util[k] += v
		}
	}
	n := float64(len(rs))
	layers["engine.skipped_frac"] = ratio(skipped, cycles)
	layers["engine.drain_used_frac"] = ratio(drainUsed, drainCfg)
	layers["traffic.accept_frac"] = ratio(inj, gen)
	layers["core.wi_awake_frac"] = awake / n
	for _, c := range linkClasses {
		layers["noc.link_util."+c] = util[c] / n
	}
}

// linkClasses are the link technologies Result.LinkUtilization reports.
var linkClasses = []string{"mesh-link", "interposer-link", "serial-io", "wide-io", "wireless"}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func stepped(rs []*engine.Result) int64 {
	var n int64
	for _, r := range rs {
		n += r.Cycles - r.IdleCyclesSkipped
	}
	return n
}

// profileLayers records the per-cycle rows as CPU ns per stepped cycle and
// returns a message when the profile does not account for all of Run.
func profileLayers(s cpuSplit, steppedCycles int64, layers map[string]float64) string {
	per := func(ns int64) float64 { return float64(ns) / float64(steppedCycles) }
	for _, name := range layerNames() {
		layers[name] = per(s.layers[name])
	}
	layers["engine.run_total"] = per(s.runNS)
	return s.check()
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
