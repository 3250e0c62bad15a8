package engine

import (
	"strings"
	"testing"

	"wimc/internal/config"
	"wimc/internal/route"
	"wimc/internal/sim"
)

// hybridSelectCfg returns a shortened hybrid configuration on the
// exclusive channel model (K sub-channels, skip-empty arbitration) — the
// regime where route selection has both a wireless MAC to saturate and an
// interposer to spill onto.
func hybridSelectCfg(chips, k int) config.Config {
	cfg := config.MustXCYM(chips, config.DefaultStacks(chips), config.ArchHybrid)
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1500
	cfg.Channel = config.ChannelExclusive
	cfg.WirelessChannels = k
	cfg.ChannelAssign = config.AssignSpatialReuse
	if k == 1 {
		cfg.ChannelAssign = config.AssignSingle
	}
	cfg.MACPolicyMode = config.PolicySkipEmpty
	return cfg
}

// TestStaticSelectorEquivalence is the multi-class layer's reference
// regression in the FullTick / LegacySingleChannel tradition: a hybrid run
// under route_select "static" — which builds and installs every class
// table and consults no selector — must produce byte-identical Result JSON
// to the retained single-class reference path (Params.SingleClassTable),
// which builds only the pre-change table. Covered across the crossbar and
// exclusive channel models, the empty default, both scheduling paths and
// a larger preset.
func TestStaticSelectorEquivalence(t *testing.T) {
	type cse struct {
		name    string
		cfg     config.Config
		traffic TrafficSpec
	}
	sat := TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2, PacketFlits: 16}
	light := TrafficSpec{Kind: TrafficUniform, Rate: 0.002, MemFraction: 0.2}
	cases := []cse{
		{name: "crossbar-default", cfg: quickCfg(4, config.ArchHybrid), traffic: light},
		{name: "exclusive-k1-sat", cfg: hybridSelectCfg(4, 1), traffic: sat},
		{name: "exclusive-k4-sat", cfg: hybridSelectCfg(4, 4), traffic: sat},
	}
	if !testing.Short() {
		cases = append(cases, cse{name: "exclusive-k8-16chips", cfg: hybridSelectCfg(16, 8), traffic: sat})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, explicit := range []bool{false, true} {
				for _, fullTick := range []bool{false, true} {
					cfg := c.cfg
					if explicit {
						cfg.RouteSelectMode = config.SelectStatic
					} else {
						cfg.RouteSelectMode = "" // the implicit default
					}
					multi := mustRun(t, Params{Cfg: cfg, Traffic: c.traffic, FullTick: fullTick})
					ref := mustRun(t, Params{Cfg: cfg, Traffic: c.traffic, FullTick: fullTick,
						SingleClassTable: true})
					if a, b := resultJSON(t, multi), resultJSON(t, ref); a != b {
						t.Fatalf("explicit=%v fullTick=%v: static selection diverged from the single-class reference:\nmulti: %s\nref:   %s",
							explicit, fullTick, a, b)
					}
				}
			}
		})
	}
}

// TestAdaptiveSelectorSpillsAndWins: at saturation the adaptive selector
// must actually spill (wired-only packets injected, spill transitions
// counted) and must not fall below the static selector's delivered
// bandwidth — the whole point of load-aware fabric selection.
func TestAdaptiveSelectorSpillsAndWins(t *testing.T) {
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2, PacketFlits: 16}
	static := hybridSelectCfg(4, 1)
	static.RouteSelectMode = config.SelectStatic
	rs := mustRun(t, Params{Cfg: static, Traffic: tr})

	adaptive := hybridSelectCfg(4, 1)
	adaptive.RouteSelectMode = config.SelectAdaptive
	e, err := New(Params{Cfg: adaptive, Traffic: tr})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ra.RouteSpills == 0 {
		t.Fatal("saturated adaptive run never spilled")
	}
	if ra.RouteClassPackets["wired-only"] == 0 {
		t.Fatalf("no wired-only packets injected: %v", ra.RouteClassPackets)
	}
	if ra.RouteClassPackets["wireless-preferred"] == 0 {
		t.Fatalf("no wireless-preferred packets injected: %v", ra.RouteClassPackets)
	}
	if ra.BandwidthPerCoreGbps < rs.BandwidthPerCoreGbps {
		t.Fatalf("adaptive bw %.4f below static %.4f", ra.BandwidthPerCoreGbps, rs.BandwidthPerCoreGbps)
	}
	if err := e.CheckFlitConservation(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckPipelineInvariants(); err != nil {
		t.Fatal(err)
	}
	// Static runs must not report the adaptive-only counters (that would
	// break the byte-identity with the single-class reference).
	if rs.RouteClassPackets != nil || rs.RouteSpills != 0 {
		t.Fatalf("static run reports selector counters: %v %d", rs.RouteClassPackets, rs.RouteSpills)
	}
}

// TestAdaptiveSelectorReturnsOnDrain: a load pulse against an otherwise
// light workload must drive the hysteresis loop through both transitions —
// spill at saturation, return once the WI drains during the drain window.
func TestAdaptiveSelectorReturnsOnDrain(t *testing.T) {
	cfg := hybridSelectCfg(4, 1)
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 2000
	cfg.DrainCycles = 30000
	cfg.RouteSelectMode = config.SelectAdaptive
	e, err := New(Params{Cfg: cfg, Traffic: TrafficSpec{
		Kind: TrafficUniform, Rate: 0.05, MemFraction: 0.2, PacketFlits: 16,
	}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.RouteSpills == 0 {
		t.Skip("load pulse never saturated the WI on this configuration")
	}
	if r.RouteReturns == 0 {
		t.Fatalf("WI drained (run fully drained: %d delivered) but the selector never returned",
			r.DeliveredPackets)
	}
}

// TestAdaptiveValidationAndReferencePaths: the dead-knob guarantees — the
// adaptive knob is rejected wherever the machinery it names does not
// exist, instead of being silently ignored.
func TestAdaptiveValidationAndReferencePaths(t *testing.T) {
	// engine.New: the legacy single-channel MAC exports no load signals.
	legacy := config.MustXCYM(4, 4, config.ArchHybrid)
	legacy.Channel = config.ChannelExclusive
	legacy.WirelessChannels = 1
	legacy.RouteSelectMode = config.SelectAdaptive
	_, err := New(Params{Cfg: legacy, LegacySingleChannel: true,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.001}})
	if err == nil || !strings.Contains(err.Error(), "legacy") {
		t.Fatalf("legacy + adaptive accepted: %v", err)
	}
	// engine.New: the single-class reference models static only.
	ref := config.MustXCYM(4, 4, config.ArchHybrid)
	ref.RouteSelectMode = config.SelectAdaptive
	_, err = New(Params{Cfg: ref, SingleClassTable: true,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.001}})
	if err == nil || !strings.Contains(err.Error(), "single-class") {
		t.Fatalf("single-class reference + adaptive accepted: %v", err)
	}
}

// TestSelectorWiringMatchesMode: the selector exists exactly on adaptive
// hybrid engines, and the class tables are multi-class exactly on hybrid
// shortest-path graphs.
func TestSelectorWiringMatchesMode(t *testing.T) {
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 0.001}
	he, err := New(Params{Cfg: quickCfg(4, config.ArchHybrid), Traffic: tr})
	if err != nil {
		t.Fatal(err)
	}
	if he.Selector() != nil {
		t.Fatal("static hybrid engine built a selector")
	}
	if !he.ClassTables().MultiClass() {
		t.Fatal("hybrid engine built no wired-only class")
	}
	acfg := quickCfg(4, config.ArchHybrid)
	acfg.RouteSelectMode = config.SelectAdaptive
	ae, err := New(Params{Cfg: acfg, Traffic: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ae.Selector().(*route.AdaptiveSelector); !ok {
		t.Fatalf("adaptive engine selector is %T", ae.Selector())
	}
	we, err := New(Params{Cfg: quickCfg(4, config.ArchWireless), Traffic: tr})
	if err != nil {
		t.Fatal(err)
	}
	if we.ClassTables().MultiClass() || we.Selector() != nil {
		t.Fatal("wireless engine built multi-class routing state")
	}
}

// TestIsWirelessMatchesPortChoice: a hop the route tables call wireless
// must be one the engine forwards through the WI, and every other hop one
// it forwards through a wired port. Dense WI placements put WIs on mesh
// neighbours and on the chip switches memory stacks attach to; such a hop
// is reachable over either arc, and the engine takes the wire. The
// deadlock check, TxWI and wimctopo all read IsWireless, so a hop it
// mislabels is modeled as a wireless channel the flits never use.
func TestIsWirelessMatchesPortChoice(t *testing.T) {
	for _, tc := range []struct {
		arch config.Architecture
		cpw  int
	}{
		{config.ArchWireless, 1},
		{config.ArchWireless, 2},
		{config.ArchHybrid, 4},
	} {
		cfg := config.MustXCYM(4, 4, tc.arch)
		cfg.CoresPerWI = tc.cpw
		e, err := New(Params{Cfg: cfg, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.01}})
		if err != nil {
			t.Fatalf("%s cores_per_wi %d: %v", tc.arch, tc.cpw, err)
		}
		hostsWI := make(map[sim.SwitchID]bool)
		for _, s := range e.graph.WISwitches {
			hostsWI[s] = true
		}
		wiredWIHops := 0
		for ci, tbl := range e.tables.Tables() {
			for s, row := range tbl.Next {
				u := sim.SwitchID(s)
				for d, v := range row {
					if s == d {
						continue
					}
					_, wired := e.portToward(u, v)
					if tbl.IsWireless(u, v) == wired {
						t.Fatalf("%s cores_per_wi %d: table %d: hop %d->%d: IsWireless %v, wired port %v",
							tc.arch, tc.cpw, ci, u, v, tbl.IsWireless(u, v), wired)
					}
					if wired && hostsWI[u] && hostsWI[v] {
						wiredWIHops++
					}
				}
			}
		}
		if wiredWIHops == 0 {
			t.Fatalf("%s cores_per_wi %d: no route takes a wired hop between two WIs", tc.arch, tc.cpw)
		}
	}
}
