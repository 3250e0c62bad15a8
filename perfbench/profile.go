package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuLayers are the per-cycle layers a CPU profile of Engine.Run is split
// into, each named by the entry points whose subtree it owns. A sample goes
// to the innermost matching frame, so a layer's figure is its self time
// minus nested layers. "engine.other" is the rest of Engine.Run.
var cpuLayers = []struct {
	name  string
	match func(fn string) bool
}{
	{"noc.rc", exact("wimc/internal/noc.(*Switch).TickRC")},
	{"noc.va", exact("wimc/internal/noc.(*Switch).TickVA")},
	{"noc.sast", exact("wimc/internal/noc.(*Switch).TickSAST")},
	{"noc.link", exact(
		"wimc/internal/noc.(*Link).Deliver",
		"wimc/internal/noc.(*Link).DeliverFlitHalf", "wimc/internal/noc.(*Link).DeliverCreditHalf",
		"wimc/internal/noc.(*Link).DrainFlitInbox", "wimc/internal/noc.(*Link).DrainCreditInbox",
	)},
	{"noc.endpoint", exact("wimc/internal/noc.(*Endpoint).Tick")},
	{"core.launch", exact("wimc/internal/core.(*Fabric).Launch")},
	{"core.deliver", exact("wimc/internal/core.(*Fabric).Deliver")},
	{"traffic.gen", func(fn string) bool {
		return strings.HasPrefix(fn, "wimc/internal/traffic.") && strings.HasSuffix(fn, ").NextFor")
	}},
	{"energy.meter", func(fn string) bool { return strings.HasPrefix(fn, "wimc/internal/energy.(*Meter).") }},
	{"engine.replay", exact("wimc/internal/engine.(*Engine).replayFabricOps", "wimc/internal/engine.(*Engine).replayEndpointEvents")},
}

const otherLayer = "engine.other"

// The shard barrier dispatches each shard's work, so it owns only the
// samples it is the innermost wimc frame of: its own code and the channel
// and scheduler calls it makes. Shard work reached through it belongs to
// the layer that work falls in, or to engine.other.
var (
	barrierLayer = "engine.barrier"
	isBarrier    = exact("wimc/internal/engine.(*shardBarrier).run", "wimc/internal/engine.newShardBarrier.func1")
	// isRunRoot marks frames under which a sample counts as Engine.Run
	// time: Run itself on the caller's goroutine and the shard workers the
	// barrier starts on their own goroutines.
	isRunRoot = exact("wimc/internal/engine.(*Engine).Run", "wimc/internal/engine.newShardBarrier.func1")
	isNew     = exact("wimc/internal/engine.New")
)

func exact(names ...string) func(string) bool {
	return func(fn string) bool {
		for _, n := range names {
			if fn == n {
				return true
			}
		}
		return false
	}
}

// layerNames lists the per-cycle rows in report order.
func layerNames() []string {
	out := make([]string, 0, len(cpuLayers)+2)
	for _, l := range cpuLayers {
		out = append(out, l.name)
	}
	return append(out, barrierLayer, otherLayer)
}

// cpuSplit is one CPU profile attributed to layers, in CPU nanoseconds.
type cpuSplit struct {
	layers map[string]int64
	runNS  int64 // samples under a Run root; the layer rows sum to it
	newNS  int64 // samples under engine.New
	allNS  int64 // every sample in the profile
	// strayNS counts samples in simulation code under neither a Run root
	// nor engine.New: Run work the root matching missed, such as a shard
	// worker closure that was renamed or a stack cut short.
	strayNS int64
	// rusageNS is the process CPU time over the profiled window, measured
	// apart from the profile.
	rusageNS int64
}

// coverageSlack is how far the profile's CPU total may stray from the
// process CPU time, as a share of it. On a 64-chip run the profile sees
// 96-97% of the rusage CPU (runtime work outside any sampled stack); a
// shard worker's CPU going missing would cost about half. A further 20 ms
// per thread covers the sampling period each thread can leave unsampled.
const coverageSlack = 0.10

// check returns a message when the split cannot be trusted to account for
// all of Engine.Run: simulation code ran outside every root, or the
// profile missed process CPU time the rusage counters saw.
func (s cpuSplit) check() string {
	if s.strayNS != 0 {
		return fmt.Sprintf("profile: %d ns of simulation CPU outside Engine.Run and engine.New", s.strayNS)
	}
	slack := coverageSlack*float64(s.rusageNS) + float64(runtime.GOMAXPROCS(0))*float64(20*time.Millisecond)
	if d := float64(s.allNS - s.rusageNS); d > slack || -d > slack {
		return fmt.Sprintf("profile: %d ns of samples, process CPU %d ns", s.allNS, s.rusageNS)
	}
	return ""
}

// profiled runs fn under the CPU profiler and attributes its samples.
func profiled(fn func() error) (cpuSplit, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return cpuSplit{}, fmt.Errorf("start cpu profile: %w", err)
	}
	cpu0 := cpuTime()
	err := fn()
	cpu := cpuTime() - cpu0
	pprof.StopCPUProfile()
	if err != nil {
		return cpuSplit{}, err
	}
	prof, err := parseProfile(&buf)
	if err != nil {
		return cpuSplit{}, err
	}
	s := attribute(prof)
	s.rusageNS = cpu.Nanoseconds()
	return s, nil
}

func attribute(p *profile) cpuSplit {
	s := cpuSplit{layers: map[string]int64{}}
	for _, smp := range p.samples {
		s.allNS += smp.ns
		var frames []string // innermost first
		for _, id := range smp.locs {
			frames = append(frames, p.locFuncs[id]...)
		}
		inRun, inNew, inSim := false, false, false
		for _, fn := range frames {
			inRun = inRun || isRunRoot(fn)
			inNew = inNew || isNew(fn)
			inSim = inSim || isSim(fn)
		}
		switch {
		case inRun:
			s.runNS += smp.ns
			s.layers[classify(frames)] += smp.ns
		case inNew:
			s.newNS += smp.ns
		case inSim:
			s.strayNS += smp.ns
		}
	}
	return s
}

// isSim reports whether fn belongs to a package whose code runs only
// inside engine.New and Engine.Run.
func isSim(fn string) bool {
	for _, pkg := range simPackages {
		if strings.HasPrefix(fn, pkg) {
			return true
		}
	}
	return false
}

var simPackages = []string{
	"wimc/internal/noc.", "wimc/internal/core.", "wimc/internal/traffic.",
	"wimc/internal/energy.", "wimc/internal/engine.",
}

func classify(frames []string) string {
	sawWimc := false
	for _, fn := range frames {
		for _, l := range cpuLayers {
			if l.match(fn) {
				return l.name
			}
		}
		if isBarrier(fn) {
			if !sawWimc {
				return barrierLayer
			}
			return otherLayer
		}
		if strings.HasPrefix(fn, "wimc/") {
			sawWimc = true
		}
	}
	return otherLayer
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type sample struct {
	locs []uint64 // leaf first
	ns   int64
}

// parseProfile decodes a gzipped pprof CPU profile (profile.proto) far
// enough to attribute samples: samples, locations, functions and strings.
func parseProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}
		locLines  = map[uint64][]uint64{}
		rawSmps   [][]uint64
		rawVals   [][]int64
		nsIndex   = -1
		typeNames [][2]int64
	)
	err = fields(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			typeNames = append(typeNames, t)
			return err
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := fields(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendUvarints(&locs, wt, v, b)
				case 2:
					var u []uint64
					if err := appendUvarints(&u, wt, v, b); err != nil {
						return err
					}
					for _, x := range u {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			rawSmps = append(rawSmps, locs)
			rawVals = append(rawVals, vals)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for i, t := range typeNames {
		if str(t[1]) == "nanoseconds" {
			nsIndex = i
		}
	}
	if nsIndex < 0 {
		return nil, errors.New("cpu profile: no nanoseconds sample type")
	}
	p := &profile{locFuncs: map[uint64][]string{}}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcName[f])
		}
		p.locFuncs[id] = names
	}
	for i, locs := range rawSmps {
		if nsIndex >= len(rawVals[i]) {
			return nil, errors.New("cpu profile: sample without a nanoseconds value")
		}
		p.samples = append(p.samples, sample{locs: locs, ns: rawVals[i][nsIndex]})
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated varint field, packed or not.
func appendUvarints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
