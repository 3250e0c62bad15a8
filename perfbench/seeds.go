package main

import (
	"wimc/internal/config"
	"wimc/internal/engine"
)

// phasedMeasure is phased16's measured window in cycles.
const phasedMeasure = 200_000

// phasedPool holds the configuration seeds phased16 runs. The collective
// profile draws exponential phase lengths, so the work in one window varies
// about 3x from seed to seed, and a different --seed would then measure a
// different amount of work. Every seed here has a stepped-cycle count
// (Result.Cycles - Result.IdleCyclesSkipped, exact and host-independent)
// within 5% of the median over seeds 1..300 at phasedMeasure cycles. That
// band still holds seeds whose bursts congest about twice as much, so the
// pool was narrowed further by measured Engine.Run time on one shared
// host: candidates within 2.5% of their median time, less seeds 20 and
// 278, which ran about 15% faster and slower than the rest in later runs.
// The timings are noisy, so that narrowing is a recorded choice, not a
// rule that reproduces. --seed picks an entry.
var phasedPool = []uint64{14, 27, 78, 110, 131, 297}

// phasedSeed maps the benchmark seed onto the pool; seeds 0 and 1 give the
// pool's first entry.
func phasedSeed(seed int64) uint64 {
	if seed <= 1 {
		return phasedPool[0]
	}
	return phasedPool[uint64(seed-1)%uint64(len(phasedPool))]
}

// phasedParams is one phased16 run: the 16-chip wireless package under the
// collective profile, with a drain bound far beyond what the network needs.
func phasedParams(cfgSeed uint64, smoke bool) (engine.Params, error) {
	cfg, err := config.XCYM(16, 16, config.ArchWireless)
	if err != nil {
		return engine.Params{}, err
	}
	cfg.Seed = cfgSeed
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1000, phasedMeasure, 10_000_000
	if smoke {
		cfg.MeasureCycles, cfg.DrainCycles = 20_000, 100_000
	}
	return engine.Params{Cfg: cfg, BuildWorkers: 1, Traffic: engine.TrafficSpec{
		Kind: engine.TrafficApp, App: "collective",
	}}, nil
}
