package noc

import (
	"fmt"
	"math/bits"

	"wimc/internal/energy"
	"wimc/internal/sim"
)

// Conduit is the downstream attachment of an output port: a wired link, an
// endpoint ejection sink, or a wireless transmit buffer.
type Conduit interface {
	// CanAccept reports whether the conduit can take one flit this cycle
	// (bandwidth tokens, buffer space).
	CanAccept(now sim.Cycle) bool
	// Accept takes one flit. next identifies the next-hop switch chosen by
	// routing (needed by the wireless fabric to address the destination WI;
	// wired links ignore it).
	Accept(now sim.Cycle, f Flit, next sim.SwitchID)
}

// CreditSink receives buffer credits freed by a switch input VC and returns
// them to the upstream transmitter.
type CreditSink interface {
	ReturnCredit(now sim.Cycle, vc int)
}

// PortHop is one forwarding-table entry: the output port toward a
// destination endpoint and the next-hop switch (sim.NoSwitch for local
// delivery).
type PortHop struct {
	Port int16
	Next sim.SwitchID
}

// vcState tracks the wormhole state machine of one input VC.
type vcState uint8

const (
	vcIdle   vcState = iota // waiting for a head flit
	vcWaitVC                // routed, waiting for an output VC grant
	vcActive                // streaming flits to the allocated output VC
)

// inputVC is one virtual channel of an input port.
type inputVC struct {
	buf     flitRing
	state   vcState
	outPort int16
	outVC   int16
	phase   uint8 // VC class of the packet currently heading the buffer
	nextHop sim.SwitchID
}

// InputPort is the receive side of a switch port.
type InputPort struct {
	vcs    []inputVC
	credit CreditSink
	rrNom  int // round-robin pointer for switch-allocation nomination
	// The per-VC masks below are maintained on every push, pop, credit
	// change and state transition, so each pipeline stage visits exactly
	// the VCs a full scan would act on — in the same order — without
	// touching the rest:
	//
	//	ready[vc]   ⇔ vcActive, buffer nonempty (SA nominee unless stalled)
	//	rcReady[vc] ⇔ vcIdle, buffer nonempty (a head flit awaiting RC)
	//	waiting[vc] ⇔ vcWaitVC (a VA request)
	//	stalled[vc] ⇔ vcActive and the held output VC has no credits
	ready   uint64
	rcReady uint64
	waiting uint64
	stalled uint64
}

// outputVC is one virtual channel of an output port.
type outputVC struct {
	holderPort int16 // input port currently holding this VC, or -1
	holderVC   int16
	credits    int16
}

// OutputPort is the transmit side of a switch port.
type OutputPort struct {
	vcs        []outputVC
	conduit    Conduit
	maxCredits int16
	rrVA       int
	rrSA       int
}

// Credits returns the available downstream credits of output VC vc (test
// and invariant-check hook).
func (op *OutputPort) Credits(vc int) int { return int(op.vcs[vc].credits) }

// CreditOccupancy returns the free downstream credits summed over the
// port's VCs and the port's total credit capacity — the wired-headroom
// load signal the adaptive route selector reads at injection time.
func (op *OutputPort) CreditOccupancy() (free, capacity int) {
	for i := range op.vcs {
		free += int(op.vcs[i].credits)
	}
	return free, len(op.vcs) * int(op.maxCredits)
}

// Switch is a wormhole virtual-channel router with a three-stage pipeline:
// route computation (RC), VC allocation (VA) and switch allocation plus
// traversal (SA/ST). One flit per output port traverses per cycle.
//
// Both allocators are event-driven, with decisions identical to a full
// scan every cycle:
//
//   - VA runs only while vaDirty is set. Exactly two transitions set it:
//     RC moving an input VC into vcWaitVC (a new request), and a tail flit
//     releasing an output VC in traverse (a new free VC). A VA call
//     leaves no grantable request/free-VC pair behind, and one that grants
//     nothing has no side effects (rrVA moves only on a grant), so every
//     call skipped while the flag is clear is a no-op. TickVA clears it.
//   - SA nominates from ready &^ stalled. The stalled bit of an active
//     input VC is set when its output VC's credits reach 0 (a traversal
//     spending the last one, or a VA grant onto an empty VC) and cleared
//     when ReturnCredit brings them back to 1; a tail releases the output
//     VC before its bit could be set. These are exactly the VCs a scan
//     would pass over for lack of credits.
type Switch struct {
	ID sim.SwitchID

	vcCount  int
	depth    int
	flitBits int

	in  []*InputPort
	out []*OutputPort

	// fwd holds one forwarding table per route class, each indexed by
	// destination endpoint ID. fwd[0] always exists; a packet whose
	// RouteClass has no table here routes by class 0 (single-class
	// systems never install more).
	fwd [][]PortHop

	// phaseSplit partitions output VCs into two classes: flits in phase 0
	// (pre-wireless) may only use VCs [0, V-postVCs), flits in phase 1
	// (post-wireless) only [V-postVCs, V). Enabled on wireless topologies.
	phaseSplit bool
	postVCs    int

	meter     *energy.Meter
	switchPJ  float64 // dynamic energy per flit traversal
	nominated []nomination

	// buffered counts flits across all input VC buffers. The switch's three
	// pipeline ticks are provably no-ops while it is zero, which is the
	// active-set scheduling predicate.
	buffered int
	// vaDirty is set when a VA request or a free output VC appears since
	// the last TickVA (see the allocator contract above).
	vaDirty bool

	active   *sim.ActiveSet
	activeID int

	// vaReqs is preallocated VC-allocation scratch (the request list),
	// reused to keep the hot loop allocation-free.
	vaReqs []vaReq
}

// vaReq is one per-cycle VC-allocation request: an input VC in vcWaitVC
// state and the output port it routed to.
type vaReq struct {
	ipIdx, vcIdx int16
	outPort      int16
}

// nomination is a per-cycle SA request from an input VC.
type nomination struct {
	inPort, inVC   int16
	outPort, outVC int16
}

// NewSwitch constructs a switch with no ports. Ports are added with
// AddInputPort/AddOutputPort before simulation starts. At most 64 VCs per
// port are supported (the pipeline tracks per-port VC eligibility in
// uint64 bitmasks); more is a construction-time bug and panics loudly,
// mirroring config.Validate's vcs <= 64 rule for callers that build
// switches directly.
func NewSwitch(id sim.SwitchID, vcs, depth, flitBits int, switchPJPerBit float64, m *energy.Meter) *Switch {
	if vcs > 64 {
		panic(fmt.Sprintf("noc: switch %d: %d VCs exceeds the 64-VC bitmask limit", id, vcs))
	}
	return &Switch{
		ID:       id,
		vcCount:  vcs,
		depth:    depth,
		flitBits: flitBits,
		meter:    m,
		switchPJ: switchPJPerBit * float64(flitBits),
	}
}

// AddInputPort appends an input port whose freed buffer slots are returned
// to credit. It returns the port index.
func (s *Switch) AddInputPort(credit CreditSink) int {
	p := &InputPort{vcs: make([]inputVC, s.vcCount), credit: credit}
	for i := range p.vcs {
		p.vcs[i].buf = newFlitRing(s.depth)
	}
	s.in = append(s.in, p)
	return len(s.in) - 1
}

// AddOutputPort appends an output port feeding the conduit, with the given
// initial per-VC downstream credits. It returns the port index. At most 64
// output ports are supported (SA/ST arbitration tracks ports in a uint64
// bitmask); exceeding that is a construction-time bug, not a load issue,
// so it panics loudly.
func (s *Switch) AddOutputPort(c Conduit, credits int) int {
	if len(s.out) >= 64 {
		panic(fmt.Sprintf("noc: switch %d would exceed 64 output ports (SA port bitmask)", s.ID))
	}
	p := &OutputPort{vcs: make([]outputVC, s.vcCount), conduit: c, maxCredits: int16(credits)}
	for i := range p.vcs {
		p.vcs[i].holderPort = -1
		p.vcs[i].holderVC = -1
		p.vcs[i].credits = int16(credits)
	}
	s.out = append(s.out, p)
	return len(s.out) - 1
}

// SetForwarding installs the class-0 forwarding table (one entry per
// endpoint) — the only table of a single-class system.
func (s *Switch) SetForwarding(fwd []PortHop) { s.SetForwardingClass(0, fwd) }

// SetForwardingClass installs the forwarding table of one route class.
// Class 0 must be installed; higher classes are optional and looked up per
// packet (a missing class falls back to class 0 in route computation).
func (s *Switch) SetForwardingClass(class int, fwd []PortHop) {
	for len(s.fwd) <= class {
		s.fwd = append(s.fwd, nil)
	}
	s.fwd[class] = fwd
}

// forwardingFor returns the forwarding table routing packet p.
func (s *Switch) forwardingFor(p *Packet) []PortHop {
	if c := int(p.RouteClass); c < len(s.fwd) && s.fwd[c] != nil {
		return s.fwd[c]
	}
	return s.fwd[0]
}

// SetPhaseSplit enables VC class partitioning by wireless phase, giving the
// post-wireless class the top post VCs. Post-wireless mesh segments are
// short (destination WI to final node), so a small class suffices.
func (s *Switch) SetPhaseSplit(on bool, post int) {
	if post < 1 {
		post = 1
	}
	if post >= s.vcCount {
		post = s.vcCount - 1
	}
	s.phaseSplit = on
	s.postVCs = post
}

// vcRange returns the output-VC interval a flit in the given phase may use.
func (s *Switch) vcRange(phase uint8) (lo, hi int) {
	if !s.phaseSplit {
		return 0, s.vcCount
	}
	split := s.vcCount - s.postVCs
	if phase == 0 {
		return 0, split
	}
	return split, s.vcCount
}

// SetActivity registers the switch in the engine's switch activity set
// under index id; the switch adds itself whenever a flit arrives.
func (s *Switch) SetActivity(set *sim.ActiveSet, id int) {
	s.active, s.activeID = set, id
}

// SetInputCredit installs the credit sink of an input port after the fact
// (used when the sink is constructed after the port, e.g. endpoints).
func (s *Switch) SetInputCredit(port int, c CreditSink) { s.in[port].credit = c }

// SetOutputConduit installs the conduit of an output port after the fact.
func (s *Switch) SetOutputConduit(port int, c Conduit) { s.out[port].conduit = c }

// InputPorts returns the number of input ports.
func (s *Switch) InputPorts() int { return len(s.in) }

// OutputPorts returns the number of output ports.
func (s *Switch) OutputPorts() int { return len(s.out) }

// VCs returns the per-port virtual channel count.
func (s *Switch) VCs() int { return s.vcCount }

// Output returns output port i (engine/fabric wiring hook).
func (s *Switch) Output(i int) *OutputPort { return s.out[i] }

// Receive enqueues a flit arriving on the given input port and VC. The
// credit protocol guarantees buffer space; violation indicates a simulator
// bug and panics.
func (s *Switch) Receive(port int, vc int, f Flit) {
	ivc := &s.in[port].vcs[vc]
	if !ivc.buf.push(f) {
		panic(fmt.Sprintf("noc: switch %d port %d vc %d buffer overflow (pkt %d seq %d): credit protocol violated",
			s.ID, port, vc, f.Pkt.ID, f.Seq))
	}
	s.buffered++
	ip := s.in[port]
	switch ivc.state {
	case vcIdle:
		ip.rcReady |= 1 << uint(vc)
	case vcActive:
		ip.ready |= 1 << uint(vc)
	}
	s.active.Add(s.activeID)
}

// ReturnCredit restores one downstream credit to output port port, VC vc.
// The 0→1 transition unstalls the input VC holding the output VC.
func (s *Switch) ReturnCredit(port, vc int) {
	op := s.out[port]
	ovc := &op.vcs[vc]
	ovc.credits++
	if ovc.credits > op.maxCredits {
		panic(fmt.Sprintf("noc: switch %d out port %d vc %d credit overflow", s.ID, port, vc))
	}
	if ovc.credits == 1 && ovc.holderPort >= 0 {
		s.in[ovc.holderPort].stalled &^= 1 << uint(ovc.holderVC)
	}
}

// TickSAST performs switch allocation and traversal: each input port
// nominates one ready VC with downstream credit (round-robin), each output
// port grants one nominee (round-robin) and the winning flit traverses to
// the conduit.
func (s *Switch) TickSAST(now sim.Cycle) {
	if s.buffered == 0 {
		return
	}
	s.nominated = s.nominated[:0]

	// Stage 1: input-port nomination. ready &^ stalled holds exactly the
	// VCs a full scan would consider (vcActive, nonempty buffer, output VC
	// credit); iterate its bits in the same wrap-around order starting at
	// rrNom.
	for ipIdx, ip := range s.in {
		m := ip.ready &^ ip.stalled
		if m == 0 {
			continue
		}
		n := len(ip.vcs)
		high := m >> uint(ip.rrNom) << uint(ip.rrNom) // bits at/after rrNom
		for pass := 0; pass < 2; pass++ {
			mm := high
			if pass == 1 {
				mm = m &^ high
			}
			nominatedHere := false
			for mm != 0 {
				vcIdx := bits.TrailingZeros64(mm)
				mm &^= 1 << uint(vcIdx)
				vc := &ip.vcs[vcIdx]
				op := s.out[vc.outPort]
				if !op.conduit.CanAccept(now) {
					continue
				}
				s.nominated = append(s.nominated, nomination{
					inPort: int16(ipIdx), inVC: int16(vcIdx),
					outPort: vc.outPort, outVC: vc.outVC,
				})
				ip.rrNom = vcIdx + 1
				if ip.rrNom >= n {
					ip.rrNom = 0
				}
				nominatedHere = true
				break
			}
			if nominatedHere {
				break
			}
		}
	}

	// Stage 2: output-port grant + traversal. Candidates are scanned in
	// place (round-robin among input VCs keyed by inPort*VCs+inVC) so the
	// hot loop allocates nothing.
	if len(s.nominated) == 0 {
		return
	}
	var portMask uint64
	for i := range s.nominated {
		portMask |= 1 << uint(s.nominated[i].outPort)
	}
	for opIdx, op := range s.out {
		if portMask&(1<<uint(opIdx)) == 0 {
			continue
		}
		best := -1
		bestKey := 0
		for i := range s.nominated {
			nm := &s.nominated[i]
			if int(nm.outPort) != opIdx {
				continue
			}
			key := int(nm.inPort)*s.vcCount + int(nm.inVC)
			rel := (key - op.rrSA + s.inKeySpace()) % s.inKeySpace()
			if best == -1 || rel < bestKey {
				best, bestKey = i, rel
			}
		}
		if best == -1 {
			continue
		}
		nm := s.nominated[best]
		op.rrSA = (int(nm.inPort)*s.vcCount + int(nm.inVC) + 1) % s.inKeySpace()
		s.traverse(now, nm)
	}
}

func (s *Switch) inKeySpace() int { return len(s.in)*s.vcCount + 1 }

// traverse moves one flit from an input VC to its output conduit.
func (s *Switch) traverse(now sim.Cycle, nm nomination) {
	ip := s.in[nm.inPort]
	vc := &ip.vcs[nm.inVC]
	op := s.out[nm.outPort]
	ovc := &op.vcs[nm.outVC]

	f, ok := vc.buf.pop()
	if !ok {
		panic(fmt.Sprintf("noc: switch %d SA popped empty vc", s.ID))
	}
	s.buffered--
	bit := uint64(1) << uint(nm.inVC)
	if vc.buf.len() == 0 {
		ip.ready &^= bit
	}
	f.VC = nm.outVC
	ovc.credits--
	nextHop := vc.nextHop

	// Dynamic switch energy, attributed to the packet.
	pj := s.meter.AddDynamic(energy.ClassSwitch, s.flitBits, s.switchPJ)
	f.Pkt.AddEnergy(pj)
	if f.IsHead() {
		f.Pkt.Hops++
	}

	if f.IsTail() {
		// Release the output VC and rearm the input VC for the next packet.
		// The freed VC may be grantable to a waiting request: wake VA.
		ovc.holderPort = -1
		ovc.holderVC = -1
		vc.state = vcIdle
		vc.outPort, vc.outVC = -1, -1
		vc.nextHop = sim.NoSwitch
		ip.ready &^= bit
		if vc.buf.len() > 0 {
			// The next packet's head is already waiting: RC-eligible.
			ip.rcReady |= bit
		}
		s.vaDirty = true
	} else if ovc.credits == 0 {
		ip.stalled |= bit
	}

	op.conduit.Accept(now, f, nextHop)

	// The freed buffer slot returns upstream as a credit.
	if ip.credit != nil {
		ip.credit.ReturnCredit(now, int(nm.inVC))
	}
}

// TickVA performs VC allocation: every routed input VC waiting for an
// output VC requests one at its output port; free output VCs are granted
// round-robin. Requests are collected from the waiting masks into
// preallocated scratch; a request belongs to exactly one output port, and a
// granted one leaves the list. Every driver runs VA before RC within a
// cycle, so a head routed at cycle t first requests at t+1 (the one-cycle
// RC→VA stage that TestPipelineTiming pins). The call returns at once unless
// vaDirty is set: see the Switch allocator contract for why that skips
// only no-ops.
func (s *Switch) TickVA(now sim.Cycle) {
	if !s.vaDirty {
		return
	}
	s.vaDirty = false
	reqs := s.vaReqs[:0]
	var portMask uint64
	for ipIdx, ip := range s.in {
		for m := ip.waiting; m != 0; m &= m - 1 {
			vcIdx := bits.TrailingZeros64(m)
			outPort := ip.vcs[vcIdx].outPort
			reqs = append(reqs, vaReq{int16(ipIdx), int16(vcIdx), outPort})
			portMask |= 1 << uint(outPort)
		}
	}
	s.vaReqs = reqs

	keyOf := func(r vaReq) int { return int(r.ipIdx)*s.vcCount + int(r.vcIdx) }
	for ; portMask != 0; portMask &= portMask - 1 {
		opIdx := bits.TrailingZeros64(portMask)
		op := s.out[opIdx]
		next := 0
		for ovcIdx := range op.vcs {
			if op.vcs[ovcIdx].holderPort != -1 {
				continue
			}
			// Find the next requester at/after rrVA whose VC class permits
			// this output VC (rotating by the round-robin pointer for
			// fairness).
			best, bestRel := -1, 0
			for i, r := range reqs {
				if int(r.outPort) != opIdx {
					continue
				}
				lo, hi := s.vcRange(s.in[r.ipIdx].vcs[r.vcIdx].phase)
				if ovcIdx < lo || ovcIdx >= hi {
					continue
				}
				rel := (keyOf(r) - op.rrVA + s.inKeySpace()) % s.inKeySpace()
				if best == -1 || rel < bestRel {
					best, bestRel = i, rel
				}
			}
			if best == -1 {
				continue
			}
			r := reqs[best]
			reqs[best] = reqs[len(reqs)-1]
			reqs = reqs[:len(reqs)-1]
			s.grantVC(int(r.ipIdx), int(r.vcIdx), opIdx, ovcIdx)
			next = keyOf(r) + 1
		}
		if next > 0 {
			op.rrVA = next % s.inKeySpace()
		}
	}
}

// grantVC hands output VC ovcIdx of port opIdx to the waiting input VC
// vcIdx of port ipIdx, moving it to vcActive.
func (s *Switch) grantVC(ipIdx, vcIdx, opIdx, ovcIdx int) {
	ip := s.in[ipIdx]
	vc := &ip.vcs[vcIdx]
	ovc := &s.out[opIdx].vcs[ovcIdx]
	bit := uint64(1) << uint(vcIdx)
	vc.state = vcActive
	vc.outVC = int16(ovcIdx)
	ovc.holderPort = int16(ipIdx)
	ovc.holderVC = int16(vcIdx)
	ip.waiting &^= bit
	ip.ready |= bit
	if ovc.credits == 0 {
		// Freed by a tail whose flits still hold every downstream slot.
		ip.stalled |= bit
	}
}

// TickRC performs route computation for input VCs whose head-of-buffer flit
// opens a new packet.
func (s *Switch) TickRC(now sim.Cycle) {
	if s.buffered == 0 {
		return
	}
	for _, ip := range s.in {
		m := ip.rcReady
		for m != 0 {
			vcIdx := bits.TrailingZeros64(m)
			m &^= 1 << uint(vcIdx)
			vc := &ip.vcs[vcIdx]
			f, ok := vc.buf.peek()
			if !ok || !f.IsHead() {
				continue
			}
			hop := s.forwardingFor(f.Pkt)[f.Pkt.Dst]
			vc.outPort = hop.Port
			vc.nextHop = hop.Next
			vc.phase = f.Phase
			vc.state = vcWaitVC
			ip.rcReady &^= 1 << uint(vcIdx)
			ip.waiting |= 1 << uint(vcIdx)
			s.vaDirty = true
		}
	}
}

// BufferedFlits returns the total flits currently buffered. It is the
// active-set predicate: the switch needs ticking only while it is nonzero.
func (s *Switch) BufferedFlits() int { return s.buffered }

// CountBufferedFlits recomputes the buffered total from the VC buffers
// (invariant check for tests; must equal BufferedFlits).
func (s *Switch) CountBufferedFlits() int {
	total := 0
	for _, ip := range s.in {
		for i := range ip.vcs {
			total += ip.vcs[i].buf.len()
		}
	}
	return total
}

// CheckPipelineInvariants recomputes every incrementally maintained
// pipeline predicate — the per-port ready/rcReady/waiting/stalled VC
// bitmasks, the buffered counter and the VA dirty flag — from the
// underlying VC state machines, and reports the first drift. The masks and
// counters are shared by the active-set and FullTick scheduling paths, so
// the determinism suite alone cannot catch a dropped update (both paths
// would skip the same work); this recompute-style check can. The invariants:
//
//	ready[vc]   ⇔ state == vcActive && buffer nonempty (SA nominee)
//	rcReady[vc] ⇔ state == vcIdle   && buffer nonempty (RC candidate)
//	waiting[vc] ⇔ state == vcWaitVC (VA request)
//	stalled[vc] ⇔ state == vcActive && held output VC has 0 credits
//	switch.buffered = Σ VC buffer occupancy
//	!vaDirty ⇒ no waiting VC has a free output VC in its class
func (s *Switch) CheckPipelineInvariants() error {
	total := 0
	grantable := false
	for pi, ip := range s.in {
		var ready, rcReady, waiting, stalled uint64
		for vi := range ip.vcs {
			vc := &ip.vcs[vi]
			n := vc.buf.len()
			total += n
			bit := uint64(1) << uint(vi)
			switch vc.state {
			case vcActive:
				if n > 0 {
					ready |= bit
				}
				if s.out[vc.outPort].vcs[vc.outVC].credits == 0 {
					stalled |= bit
				}
			case vcIdle:
				if n > 0 {
					rcReady |= bit
				}
			case vcWaitVC:
				waiting |= bit
				lo, hi := s.vcRange(vc.phase)
				for _, ovc := range s.out[vc.outPort].vcs[lo:hi] {
					if ovc.holderPort == -1 {
						grantable = true
					}
				}
			}
		}
		for _, m := range []struct {
			name      string
			kept, rec uint64
		}{
			{"ready", ip.ready, ready},
			{"rcReady", ip.rcReady, rcReady},
			{"waiting", ip.waiting, waiting},
			{"stalled", ip.stalled, stalled},
		} {
			if m.kept != m.rec {
				return fmt.Errorf("noc: switch %d port %d %s mask %064b, recomputed %064b",
					s.ID, pi, m.name, m.kept, m.rec)
			}
		}
	}
	if s.buffered != total {
		return fmt.Errorf("noc: switch %d buffered counter %d, buffers hold %d",
			s.ID, s.buffered, total)
	}
	if grantable && !s.vaDirty {
		return fmt.Errorf("noc: switch %d VA dirty flag clear with a grantable request pending", s.ID)
	}
	return nil
}
