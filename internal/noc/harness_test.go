package noc

import (
	"testing"

	"wimc/internal/energy"
	"wimc/internal/sim"
)

// pipe is a minimal two-switch network for white-box tests:
//
//	src endpoint -> sw0 -> link -> sw1 -> dst endpoint
//
// Endpoint 0 attaches to sw0, endpoint 1 to sw1; optional extra sources
// (endpoints 2, 3, ...) attach to sw0 on ports of their own. The link
// parameters are configurable per test.
type pipe struct {
	meter     *energy.Meter
	sw0, sw1  *Switch
	link      *Link
	src, dst  *Endpoint
	extra     []*Endpoint
	delivered []*Packet
	now       sim.Cycle
}

type pipeOpts struct {
	vcs, depth   int
	linkRate     sim.Rate
	linkLatency  int
	queueCap     int
	phaseSplit   bool
	postVCs      int
	switchPJ     float64
	linkPJPerBit float64
	extraSrcs    int
}

func defaultPipeOpts() pipeOpts {
	return pipeOpts{
		vcs:         4,
		depth:       4,
		linkRate:    sim.RateOne,
		linkLatency: 1,
		queueCap:    16,
	}
}

func newPipe(t *testing.T, o pipeOpts) *pipe {
	t.Helper()
	m, err := energy.NewMeter(2.5)
	if err != nil {
		t.Fatal(err)
	}
	p := &pipe{meter: m}
	const flitBits = 32
	p.sw0 = NewSwitch(0, o.vcs, o.depth, flitBits, o.switchPJ, m)
	p.sw1 = NewSwitch(1, o.vcs, o.depth, flitBits, o.switchPJ, m)
	if o.phaseSplit {
		p.sw0.SetPhaseSplit(true, o.postVCs)
		p.sw1.SetPhaseSplit(true, o.postVCs)
	}

	p.link = NewLink(energy.ClassLinkMesh, o.linkLatency, o.linkRate, o.linkPJPerBit, flitBits, m)
	out0 := p.sw0.AddOutputPort(p.link, o.depth)
	in1 := p.sw1.AddInputPort(p.link)
	p.link.Connect(p.sw0, out0, p.sw1, in1)

	onDeliver := func(_ sim.Cycle, pkt *Packet) { p.delivered = append(p.delivered, pkt) }

	// Endpoint 0 on sw0 (source side).
	in0 := p.sw0.AddInputPort(nil)
	eject0 := p.sw0.AddOutputPort(nil, o.depth)
	p.src = NewEndpoint(0, p.sw0, in0, eject0, 1, 0, energy.ClassLinkLocal,
		flitBits, o.queueCap, onDeliver, m)
	p.sw0.SetInputCredit(in0, p.src)
	p.sw0.SetOutputConduit(eject0, p.src)

	// Endpoint 1 on sw1 (sink side).
	in1b := p.sw1.AddInputPort(nil)
	eject1 := p.sw1.AddOutputPort(nil, o.depth)
	p.dst = NewEndpoint(1, p.sw1, in1b, eject1, 1, 0, energy.ClassLinkLocal,
		flitBits, o.queueCap, onDeliver, m)
	p.sw1.SetInputCredit(in1b, p.dst)
	p.sw1.SetOutputConduit(eject1, p.dst)

	for i := 0; i < o.extraSrcs; i++ {
		in := p.sw0.AddInputPort(nil)
		eject := p.sw0.AddOutputPort(nil, o.depth)
		ep := NewEndpoint(sim.EndpointID(2+i), p.sw0, in, eject, 1, 0, energy.ClassLinkLocal,
			flitBits, o.queueCap, onDeliver, m)
		p.sw0.SetInputCredit(in, ep)
		p.sw0.SetOutputConduit(eject, ep)
		p.extra = append(p.extra, ep)
	}

	// Forwarding: endpoint 0 local on sw0; endpoint 1 via the link from sw0,
	// local on sw1.
	p.sw0.SetForwarding([]PortHop{
		{Port: int16(eject0), Next: sim.NoSwitch},
		{Port: int16(out0), Next: 1},
	})
	p.sw1.SetForwarding([]PortHop{
		{Port: 0, Next: sim.NoSwitch}, // unused: nothing routes back
		{Port: int16(eject1), Next: sim.NoSwitch},
	})
	return p
}

// step advances one cycle in the engine's phase order (link bandwidth
// refills lazily inside the token bucket).
func (p *pipe) step() { p.stepWith((*Switch).TickSAST, (*Switch).TickVA) }

// stepWith is step with the SA/ST and VA stages supplied by the caller.
func (p *pipe) stepWith(sast, va func(*Switch, sim.Cycle)) {
	sast(p.sw0, p.now)
	sast(p.sw1, p.now)
	va(p.sw0, p.now)
	va(p.sw1, p.now)
	p.sw0.TickRC(p.now)
	p.sw1.TickRC(p.now)
	p.link.Deliver(p.now)
	p.src.Tick(p.now)
	p.dst.Tick(p.now)
	for _, ep := range p.extra {
		ep.Tick(p.now)
	}
	p.now++
}

func (p *pipe) run(cycles int) {
	for i := 0; i < cycles; i++ {
		p.step()
	}
}

// mkPacket builds a packet from endpoint 0 to endpoint 1.
func mkPacket(id uint64, flits int) *Packet {
	return &Packet{ID: id, Src: 0, Dst: 1, NumFlits: flits, Class: ClassCoreToCore}
}
