package noc

import (
	"testing"

	"wimc/internal/sim"
)

// refTickVA is the scan-based VC allocator: every call collects every input
// VC in vcWaitVC by scanning all ports and VCs, then grants free output VCs
// round-robin. It is the oracle FuzzSwitchAllocator holds the event-driven
// TickVA to; only the state transition of a grant (grantVC) is shared.
func refTickVA(s *Switch, _ sim.Cycle) {
	type req struct{ ip, vc, out int }
	var reqs []req
	for ipIdx, ip := range s.in {
		for vcIdx := range ip.vcs {
			if vc := &ip.vcs[vcIdx]; vc.state == vcWaitVC {
				reqs = append(reqs, req{ipIdx, vcIdx, int(vc.outPort)})
			}
		}
	}
	granted := make([]bool, len(reqs))
	keyOf := func(r req) int { return r.ip*s.vcCount + r.vc }
	for opIdx, op := range s.out {
		next := 0
		for ovcIdx := range op.vcs {
			if op.vcs[ovcIdx].holderPort != -1 {
				continue
			}
			best, bestRel := -1, 0
			for i, r := range reqs {
				if granted[i] || r.out != opIdx {
					continue
				}
				lo, hi := s.vcRange(s.in[r.ip].vcs[r.vc].phase)
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
			granted[best] = true
			r := reqs[best]
			s.grantVC(r.ip, r.vc, opIdx, ovcIdx)
			next = keyOf(r) + 1
		}
		if next > 0 {
			op.rrVA = next % s.inKeySpace()
		}
	}
}

// refTickSAST is the scan-based switch allocator: each input port scans
// its VCs round-robin from rrNom for an active VC with a flit, a downstream
// credit and an accepting conduit; each output port grants the nominee
// nearest after rrSA. Only traversal itself (traverse) is shared.
func refTickSAST(s *Switch, now sim.Cycle) {
	var noms []nomination
	for ipIdx, ip := range s.in {
		n := len(ip.vcs)
		for k := 0; k < n; k++ {
			vcIdx := (ip.rrNom + k) % n
			vc := &ip.vcs[vcIdx]
			if vc.state != vcActive || vc.buf.len() == 0 {
				continue
			}
			op := s.out[vc.outPort]
			if op.vcs[vc.outVC].credits <= 0 || !op.conduit.CanAccept(now) {
				continue
			}
			noms = append(noms, nomination{
				inPort: int16(ipIdx), inVC: int16(vcIdx),
				outPort: vc.outPort, outVC: vc.outVC,
			})
			ip.rrNom = (vcIdx + 1) % n
			break
		}
	}
	for opIdx, op := range s.out {
		best, bestRel := -1, 0
		for i, nm := range noms {
			if int(nm.outPort) != opIdx {
				continue
			}
			key := int(nm.inPort)*s.vcCount + int(nm.inVC)
			rel := (key - op.rrSA + s.inKeySpace()) % s.inKeySpace()
			if best == -1 || rel < bestRel {
				best, bestRel = i, rel
			}
		}
		if best == -1 {
			continue
		}
		nm := noms[best]
		op.rrSA = (int(nm.inPort)*s.vcCount + int(nm.inVC) + 1) % s.inKeySpace()
		s.traverse(now, nm)
	}
}

// phaseTagger is sw0's link-port conduit in FuzzSwitchAllocator: it marks
// the flits of chosen packets post-wireless (phase 1) on their way to sw1,
// so sw1 allocates both VC classes of a phase-split switch.
type phaseTagger struct {
	link   *Link
	phase1 map[uint64]bool
}

func (c phaseTagger) CanAccept(now sim.Cycle) bool { return c.link.CanAccept(now) }

func (c phaseTagger) Accept(now sim.Cycle, f Flit, next sim.SwitchID) {
	if c.phase1[f.Pkt.ID] {
		f.Phase = 1
	}
	c.link.Accept(now, f, next)
}

// allocState flattens the allocator-visible state of both pipe switches:
// per output VC its credits and holder, per output port rrVA and rrSA, per
// input port rrNom, and per input VC its wormhole state and output VC.
func allocState(p *pipe) []int {
	var st []int
	for _, s := range []*Switch{p.sw0, p.sw1} {
		for _, op := range s.out {
			st = append(st, op.rrVA, op.rrSA)
			for _, ovc := range op.vcs {
				st = append(st, int(ovc.credits), int(ovc.holderPort), int(ovc.holderVC))
			}
		}
		for _, ip := range s.in {
			st = append(st, ip.rrNom)
			for i := range ip.vcs {
				st = append(st, int(ip.vcs[i].state), int(ip.vcs[i].outVC))
			}
		}
	}
	return st
}

// FuzzSwitchAllocator drives two identical pipes through the same
// fuzz-chosen configuration and traffic: one steps the event-driven TickVA
// and TickSAST, the other the scan-based oracles above. The header bytes
// pick the VC count, buffer depth, VC phase split, link rate and latency,
// and extra sources contending at sw0; each schedule byte offers one packet
// (size, source, phase-1 tag at sw1, idle gap before it). After every cycle
// the two pipes must hold the same credits, VC holders, round-robin
// pointers and VC states, and the event-driven pipe must pass
// CheckPipelineInvariants; at the end both must have delivered the same
// packets in the same order at the same cycles.
func FuzzSwitchAllocator(f *testing.F) {
	f.Add([]byte{3, 3, 0, 0, 0, 0x01, 0x07, 0x03})
	f.Add([]byte{7, 1, 0x07, 0x12, 0x02, 0x07, 0x17, 0x2f, 0x0f, 0x1b, 0x27, 0x07, 0x17})
	f.Add([]byte{1, 0, 0, 0x03, 0x01, 0x05, 0x15, 0x05, 0x15})
	f.Add([]byte{5, 2, 0x03, 0x24, 0x02, 0x0f, 0x0f, 0x1f, 0x2f, 0x0f, 0x1f, 0x2f, 0x0f, 0xcf, 0x0f})
	f.Add([]byte{2, 5, 0x01, 0x31, 0x01, 0x08, 0x18, 0x08, 0x18, 0x08, 0x18, 0x08, 0x18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		if len(data) > 69 {
			data = data[:69]
		}
		o := defaultPipeOpts()
		o.vcs = 1 + int(data[0]%8)
		o.depth = 1 + int(data[1]%6)
		if o.vcs >= 2 && data[2]&1 != 0 {
			o.phaseSplit = true
			o.postVCs = 1 + int(data[2]>>1)%(o.vcs-1)
		}
		rates := []float64{1, 0.75, 0.5, 0.25, 0.125}
		o.linkRate = sim.RateFromFlitsPerCycle(rates[int(data[3]&7)%len(rates)])
		o.linkLatency = 1 + int(data[3]>>4)%3
		o.extraSrcs = int(data[4] % 3)

		phase1 := map[uint64]bool{}
		fast, ref := newPipe(t, o), newPipe(t, o)
		for _, p := range []*pipe{fast, ref} {
			p.sw0.SetOutputConduit(0, phaseTagger{p.link, phase1})
		}
		stepBoth := func() {
			fast.step()
			ref.stepWith(refTickSAST, refTickVA)
			a, b := allocState(fast), allocState(ref)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("cycle %d: allocator state diverged at word %d: event-driven %v, scan %v",
						fast.now-1, i, a, b)
				}
			}
			for _, s := range []*Switch{fast.sw0, fast.sw1, ref.sw0, ref.sw1} {
				if err := s.CheckPipelineInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", fast.now-1, err)
				}
			}
		}

		// Schedule byte: low 3 bits the packet size, bit 3 the phase-1 tag,
		// bits 4-5 the source, bits 6-7 the idle gap before the offer.
		accepted := 0
		for i, b := range data[5:] {
			for gap := int(b >> 6); gap > 0; gap-- {
				stepBoth()
			}
			id := uint64(i + 1)
			if b&8 != 0 && o.phaseSplit {
				phase1[id] = true
			}
			offer := func(p *pipe) bool {
				srcs := append([]*Endpoint{p.src}, p.extra...)
				src := srcs[int(b>>4&3)%len(srcs)]
				pkt := mkPacket(id, int(b&7)+1)
				pkt.Src = src.ID
				return src.Offer(pkt)
			}
			accF, accR := offer(fast), offer(ref)
			if accF != accR {
				t.Fatalf("packet %d: event-driven accepted=%v, scan accepted=%v", id, accF, accR)
			}
			if accF {
				accepted++
			}
		}
		// Drain: at most 64 packets of 8 flits through a link of at least
		// 1/8 flit per cycle.
		for i := 0; i < 6000 && len(ref.delivered) < accepted; i++ {
			stepBoth()
		}
		if len(ref.delivered) != accepted {
			t.Fatalf("scan pipe delivered %d of %d accepted packets", len(ref.delivered), accepted)
		}
		if len(fast.delivered) != len(ref.delivered) {
			t.Fatalf("event-driven pipe delivered %d packets, scan pipe %d",
				len(fast.delivered), len(ref.delivered))
		}
		for i := range ref.delivered {
			a, b := fast.delivered[i], ref.delivered[i]
			if a.ID != b.ID || a.DeliveredAt != b.DeliveredAt {
				t.Fatalf("delivery %d diverged: event-driven pkt %d at %d, scan pkt %d at %d",
					i, a.ID, a.DeliveredAt, b.ID, b.DeliveredAt)
			}
		}
	})
}
