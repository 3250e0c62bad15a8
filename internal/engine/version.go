package engine

// Version identifies the simulation semantics of this engine build: two
// runs of the same (Config, TrafficSpec) pair produce byte-identical
// Results if and only if they ran under the same Version. It is folded
// into every content-addressed result key (internal/spec.PointKey), so
// bumping it invalidates every cached Result at once.
//
// Contract: any change that can alter any Result byte for any
// configuration — scheduler changes, energy constants, RNG consumption
// order, new Result fields — MUST bump Version in the same commit. Pure
// refactors proven byte-identical by the determinism matrix keep it.
// The convention is the PR number that last changed simulation output.
const Version = "wimc-engine/14"
