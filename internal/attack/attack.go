// Package attack generates the spoofing-attack workloads the DISCS
// evaluation runs against (§VI of the paper).
//
// A spoofing flow is the triple (a, i, v) of §VI-A: agent AS a sends
// the traffic, victim AS v is attacked, and innocent AS i is abused —
// as the spoofed source in a d-DDoS, or as the reflector destination
// in an s-DDoS. Following the paper (and the literature it cites),
// every routable address is equally likely to be the agent, innocent
// or victim, so ASes are sampled with probability proportional to
// their routable address space.
package attack

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"discs/internal/packet"
	"discs/internal/topology"
)

// Kind distinguishes the two spoofing-DDoS families (§I).
type Kind int

const (
	// DDDoS: agents send packets directly to the victim with spoofed
	// (innocent) source addresses for anonymity.
	DDDoS Kind = iota
	// SDDoS: agents send requests to innocent reflectors with the
	// victim's source address; the replies flood the victim.
	SDDoS
)

func (k Kind) String() string {
	if k == DDDoS {
		return "d-DDoS"
	}
	return "s-DDoS"
}

// Flow is one spoofing flow (a, i, v).
type Flow struct {
	Kind     Kind
	Agent    topology.ASN // a — where the packets originate
	Innocent topology.ASN // i — spoofed source (d-DDoS) or reflector (s-DDoS)
	Victim   topology.ASN // v — the attacked AS
}

func (f Flow) String() string {
	return fmt.Sprintf("%v(a=AS%d, i=AS%d, v=AS%d)", f.Kind, f.Agent, f.Innocent, f.Victim)
}

// Sampler draws ASes with probability proportional to their routable
// address space (the paper's r_j weights).
type Sampler struct {
	topo *topology.Topology
	asns []topology.ASN
	cum  []float64 // cumulative weights
}

// NewSampler builds a weighted sampler over all ASes of the topology.
func NewSampler(topo *topology.Topology) *Sampler {
	asns := append([]topology.ASN(nil), topo.ASNs()...)
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	cum := make([]float64, len(asns))
	var total float64
	for i, asn := range asns {
		total += topo.Ratio(asn)
		cum[i] = total
	}
	return &Sampler{topo: topo, asns: asns, cum: cum}
}

// Draw samples one AS.
func (s *Sampler) Draw(rng *rand.Rand) topology.ASN {
	if len(s.asns) == 0 {
		return 0
	}
	x := rng.Float64() * s.cum[len(s.cum)-1]
	i := sort.SearchFloat64s(s.cum, x)
	if i >= len(s.asns) {
		i = len(s.asns) - 1
	}
	return s.asns[i]
}

// DrawFlow samples a spoofing flow of the given kind with the
// constraints of §VI-A: a ≠ v and i ∉ {a, v} would bias the model, so
// the paper only requires a ≠ v and i ≠ a for d-DDoS incentives; we
// enforce a, i, v pairwise distinct, which is the regime all the
// closed forms quantify over (a = v or i = v terms carry zero or
// excluded weight).
func (s *Sampler) DrawFlow(kind Kind, rng *rand.Rand) Flow {
	for {
		a, i, v := s.Draw(rng), s.Draw(rng), s.Draw(rng)
		if a == 0 || i == 0 || v == 0 {
			return Flow{Kind: kind}
		}
		if a != v && i != v && a != i {
			return Flow{Kind: kind, Agent: a, Innocent: i, Victim: v}
		}
	}
}

// DrawFlowForVictim samples a flow attacking a fixed victim.
func (s *Sampler) DrawFlowForVictim(kind Kind, victim topology.ASN, rng *rand.Rand) Flow {
	for {
		a, i := s.Draw(rng), s.Draw(rng)
		if a == 0 || i == 0 {
			return Flow{Kind: kind, Victim: victim}
		}
		if a != victim && i != victim && a != i {
			return Flow{Kind: kind, Agent: a, Innocent: i, Victim: victim}
		}
	}
}

// Botnet is a set of agent ASes (the "large farms of botnets" of §I),
// sampled by address-space weight.
type Botnet struct {
	Agents []topology.ASN
}

// NewBotnet samples n distinct agent ASes.
func (s *Sampler) NewBotnet(n int, rng *rand.Rand) Botnet {
	seen := make(map[topology.ASN]bool)
	var agents []topology.ASN
	for len(agents) < n && len(agents) < len(s.asns) {
		a := s.Draw(rng)
		if a == 0 || seen[a] {
			continue
		}
		seen[a] = true
		agents = append(agents, a)
	}
	return Botnet{Agents: agents}
}

// RandomAddr picks a uniformly random IPv4 address inside the AS's
// space (prefixes weighted by size). ok is false when the AS has no
// IPv4 prefix. It makes two passes over the AS's prefixes — one to
// size the IPv4 space, one to locate the draw — and allocates nothing.
func RandomAddr(topo *topology.Topology, asn topology.ASN, rng *rand.Rand) (netip.Addr, bool) {
	a := topo.AS(asn)
	if a == nil {
		return netip.Addr{}, false
	}
	var total uint64
	for _, p := range a.Prefixes {
		if p.Addr().Is4() {
			total += 1 << (32 - p.Bits())
		}
	}
	if total == 0 {
		return netip.Addr{}, false
	}
	x := rng.Uint64() % total
	for _, p := range a.Prefixes {
		if !p.Addr().Is4() {
			continue
		}
		size := uint64(1) << (32 - p.Bits())
		if x < size {
			base := p.Addr().As4()
			v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
			v += uint32(x)
			return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}), true
		}
		x -= size
	}
	return netip.Addr{}, false
}

// Packets materializes n IPv4 packets for the flow: d-DDoS packets go
// agent→victim with the innocent's source; s-DDoS requests go
// agent→innocent with the victim's source.
func (f Flow) Packets(topo *topology.Topology, n int, rng *rand.Rand) ([]*packet.IPv4, error) {
	var srcAS, dstAS topology.ASN
	switch f.Kind {
	case DDDoS:
		srcAS, dstAS = f.Innocent, f.Victim
	case SDDoS:
		srcAS, dstAS = f.Victim, f.Innocent
	default:
		return nil, fmt.Errorf("attack: unknown kind %d", f.Kind)
	}
	out := make([]*packet.IPv4, 0, n)
	for k := 0; k < n; k++ {
		src, ok := RandomAddr(topo, srcAS, rng)
		if !ok {
			return nil, fmt.Errorf("attack: AS%d has no IPv4 space", srcAS)
		}
		dst, ok := RandomAddr(topo, dstAS, rng)
		if !ok {
			return nil, fmt.Errorf("attack: AS%d has no IPv4 space", dstAS)
		}
		payload := make([]byte, 24)
		rng.Read(payload)
		out = append(out, &packet.IPv4{
			TTL: 64, Protocol: packet.ProtoUDP,
			Src: src, Dst: dst, Payload: payload,
		})
	}
	return out, nil
}

// AmplificationFactor models the s-DDoS volume multiplier; §I cites a
// 73× factor for DNS amplification (60-byte request → 4000-byte
// response).
const AmplificationFactor = 73.0
