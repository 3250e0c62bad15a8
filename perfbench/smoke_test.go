package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"wimc/internal/config"
	"wimc/internal/engine"
)

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload at tiny lengths, untraced and traced, and
// checks that every metric BENCHMARK.json names is emitted with its unit
// and that no operation failed.
func TestSmoke(t *testing.T) {
	bf := readBenchFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := bf.EndToEnd
			if trace == "1" {
				want = bf.PerLayer
			}
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out, log bytes.Buffer
				args := []string{"-workload", w.Name, "-smoke", "-seconds", "0", "-trace", trace, "-root", ".."}
				if code := run(args, &out, &log); code != 0 {
					t.Fatalf("exit %d\n%s", code, log.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, log.String())
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if trace == "1" && rep.Metrics["error_rate"].Value != 0 {
					t.Errorf("error_rate = %v", rep.Metrics["error_rate"].Value)
				}
			})
		}
	}
}

func TestClassify(t *testing.T) {
	const (
		run     = "wimc/internal/engine.(*Engine).Run"
		step    = "wimc/internal/engine.(*Engine).stepSharded"
		barrier = "wimc/internal/engine.(*shardBarrier).run"
		worker  = "wimc/internal/engine.newShardBarrier.func1"
		pipe    = "wimc/internal/engine.(*Engine).tickShardPipeline"
		va      = "wimc/internal/noc.(*Switch).TickVA"
		meter   = "wimc/internal/energy.(*Meter).AddDynamic"
		chanRcv = "runtime.chanrecv1"
	)
	cases := []struct {
		frames []string // innermost first
		want   string
	}{
		{[]string{va, step, run}, "noc.va"},
		{[]string{meter, va, step, run}, "energy.meter"},
		{[]string{chanRcv, barrier, step, run}, "engine.barrier"},
		{[]string{chanRcv, worker}, "engine.barrier"},
		{[]string{pipe, "wimc/internal/engine.(*Engine).stepSharded.func1", barrier, step, run}, "engine.other"},
		{[]string{va, pipe, worker}, "noc.va"},
		{[]string{"wimc/internal/engine.(*Engine).horizon", run}, "engine.other"},
		{[]string{"wimc/internal/traffic.(*App).NextFor", "wimc/internal/engine.(*Engine).generate", run}, "traffic.gen"},
		{[]string{"wimc/internal/noc.(*Link).DeliverFlitHalf", pipe, worker}, "noc.link"},
		{[]string{"wimc/internal/noc.(*Link).DeliverCreditHalf", pipe, worker}, "noc.link"},
		{[]string{"wimc/internal/noc.(*Link).DrainFlitInbox", pipe, worker}, "noc.link"},
		{[]string{"wimc/internal/noc.(*Link).DrainCreditInbox", pipe, worker}, "noc.link"},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestAttributeStray checks that simulation code found under no Run root
// (here a shard worker whose closure name the root matching does not know)
// fails the check instead of vanishing from both sides.
func TestAttributeStray(t *testing.T) {
	p := &profile{
		locFuncs: map[uint64][]string{
			1: {"wimc/internal/noc.(*Switch).TickVA"},
			2: {"wimc/internal/engine.(*Engine).Run"},
			3: {"wimc/internal/engine.(*Engine).tickShardPipeline"},
			4: {"wimc/internal/engine.newShardBarrier.gowrap1"},
			5: {"runtime.gcBgMarkWorker"},
		},
		samples: []sample{
			{locs: []uint64{1, 2}, ns: 1e9},
			{locs: []uint64{1, 3, 4}, ns: 1e9},
			{locs: []uint64{5}, ns: 1e9},
		},
	}
	s := attribute(p)
	s.rusageNS = s.allNS
	if s.runNS != 1e9 || s.strayNS != 1e9 || s.allNS != 3e9 {
		t.Fatalf("run %d stray %d all %d", s.runNS, s.strayNS, s.allNS)
	}
	if s.check() == "" {
		t.Fatal("stray simulation CPU passed the check")
	}
	s.strayNS = 0
	if msg := s.check(); msg != "" {
		t.Fatal(msg)
	}
	s.rusageNS = 2 * s.allNS
	if s.check() == "" {
		t.Fatal("a profile missing half the process CPU passed the check")
	}
}

// TestProfileAttribution profiles real work on the serial and the sharded
// step loop, long enough for the profiler to sample it, and checks that
// the profile accounts for Engine.Run.
func TestProfileAttribution(t *testing.T) {
	for _, shards := range []int{0, runShards} {
		cfg, err := config.XCYM(16, 16, config.ArchWireless)
		if err != nil {
			t.Fatal(err)
		}
		cfg.EngineShards = shards
		cfg.WarmupCycles, cfg.MeasureCycles = 100, 2000
		out, err := engineOp(engine.Params{Cfg: cfg, BuildWorkers: 1, Traffic: engine.TrafficSpec{
			Kind: engine.TrafficUniform, Rate: 1.0, MemFraction: 0.2,
		}}, true)
		if err != nil {
			t.Fatal(err)
		}
		if out.bad != "" {
			t.Fatalf("shards %d: %s", shards, out.bad)
		}
		if out.layers["engine.run_total"] <= 0 {
			t.Fatalf("shards %d: no Engine.Run samples", shards)
		}
	}
}
