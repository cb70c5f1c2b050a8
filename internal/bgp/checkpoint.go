// Checkpoint/restore seam. A speaker's routing state — Adj-RIBs-In,
// Loc-RIB and the DISCS-Ad dedup set — is serialized as data and
// injected back directly, with no UPDATE messages replayed: the whole
// point of a post-convergence snapshot is to skip the convergence
// event storm. Loc-RIB entries that are not locally originated are
// stored as a reference (the advertising neighbor) into the Adj-RIB,
// so restore re-establishes the same pointer identity decide() left
// behind.
package bgp

import (
	"fmt"
	"sort"

	"discs/internal/snapcodec"
	"discs/internal/topology"
)

func writeRouteBody(w *snapcodec.Writer, rt *Route) {
	w.Uvarint(uint64(len(rt.ASPath)))
	for _, a := range rt.ASPath {
		w.Uvarint(uint64(a))
	}
	w.Uvarint(uint64(len(rt.Attrs)))
	for _, at := range rt.Attrs {
		w.U8(at.Flags)
		w.U8(at.Code)
		w.Bytes(at.Data)
	}
	w.Varint(int64(rt.FromRel))
}

func readRouteBody(r *snapcodec.Reader, rt *Route) {
	n := r.Count(1)
	if n > 0 {
		rt.ASPath = make([]topology.ASN, n)
		for i := range rt.ASPath {
			rt.ASPath[i] = topology.ASN(r.Uvarint())
		}
	}
	na := r.Count(3)
	if na > 0 {
		rt.Attrs = make([]Attr, na)
		for i := range rt.Attrs {
			rt.Attrs[i] = Attr{Flags: r.U8(), Code: r.U8(), Data: r.Bytes()}
		}
	}
	rt.FromRel = topology.Relationship(r.Varint())
}

// checkpoint serializes one speaker's routing state.
func (s *Speaker) checkpoint(w *snapcodec.Writer) {
	w.Uvarint(s.UpdatesSent)
	w.Uvarint(s.UpdatesRecv)

	learned := s.ribIDs(func(e *ribEntry) bool { return e.learned })
	s.prefixes.sortByAddr(learned)
	w.Uvarint(uint64(len(learned)))
	for _, id := range learned {
		w.Prefix(s.prefixes.prefixes[id])
		cands := s.rib[id].cands
		w.Uvarint(uint64(len(cands)))
		for _, rt := range cands {
			w.Uvarint(uint64(rt.From))
			writeRouteBody(w, rt)
		}
	}

	routed := s.ribIDs(hasRoute)
	s.prefixes.sortByAddr(routed)
	w.Uvarint(uint64(len(routed)))
	for _, id := range routed {
		rt := s.rib[id].best
		w.Prefix(s.prefixes.prefixes[id])
		w.Bool(rt.Local)
		if rt.Local {
			writeRouteBody(w, rt)
		} else {
			w.Uvarint(uint64(rt.From)) // reference into the Adj-RIB-In
		}
	}

	origins := make([]topology.ASN, 0, len(s.seenAds))
	for o := range s.seenAds {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	w.Uvarint(uint64(len(origins)))
	for _, o := range origins {
		w.Uvarint(uint64(o))
		w.String(s.seenAds[o])
	}
}

// restore injects state written by checkpoint into a fresh speaker,
// assigning ids to prefixes the network has not seen yet.
func (s *Speaker) restore(r *snapcodec.Reader) error {
	s.UpdatesSent = r.Uvarint()
	s.UpdatesRecv = r.Uvarint()

	np := r.Count(6)
	for i := 0; i < np; i++ {
		p := r.Prefix()
		nf := r.Count(2)
		if r.Err() != nil {
			return r.Err()
		}
		e := s.entry(s.prefixes.intern(p))
		e.learned = true
		for j := 0; j < nf; j++ {
			rt := &Route{Prefix: p, From: topology.ASN(r.Uvarint())}
			readRouteBody(r, rt)
			e.put(rt)
		}
		if r.Err() != nil {
			return r.Err()
		}
	}

	nl := r.Count(6)
	for i := 0; i < nl; i++ {
		p := r.Prefix()
		local := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		e := s.entry(s.prefixes.intern(p))
		if local {
			rt := &Route{Prefix: p, Local: true}
			readRouteBody(r, rt)
			e.best = rt
			if r.Err() != nil {
				return r.Err()
			}
			continue
		}
		from := topology.ASN(r.Uvarint())
		if r.Err() != nil {
			return r.Err()
		}
		j, ok := e.find(from)
		if !ok {
			return fmt.Errorf("bgp: restore: AS%d Loc-RIB %v references absent Adj-RIB route from AS%d",
				s.ASN, p, from)
		}
		e.best = e.cands[j]
	}

	na := r.Count(2)
	for i := 0; i < na; i++ {
		o := topology.ASN(r.Uvarint())
		s.seenAds[o] = r.String()
	}
	return r.Err()
}

// Checkpoint serializes every speaker's routing state, in topology
// order.
func (n *Network) Checkpoint(w *snapcodec.Writer) error {
	asns := n.Topo.ASNs()
	w.Uvarint(uint64(len(asns)))
	for _, asn := range asns {
		w.Uvarint(uint64(asn))
		n.Speakers[asn].checkpoint(w)
	}
	return w.Err()
}

// RestoreCheckpoint loads speaker state written by Checkpoint into a
// freshly built network over the same (restored) topology.
func (n *Network) RestoreCheckpoint(r *snapcodec.Reader) error {
	cnt := r.Count(2)
	if r.Err() != nil {
		return r.Err()
	}
	if cnt != len(n.Speakers) {
		return fmt.Errorf("bgp: restore: image has %d speakers, network has %d", cnt, len(n.Speakers))
	}
	for i := 0; i < cnt; i++ {
		asn := topology.ASN(r.Uvarint())
		if r.Err() != nil {
			return r.Err()
		}
		sp := n.Speakers[asn]
		if sp == nil {
			return fmt.Errorf("bgp: restore: image speaker AS%d absent from network", asn)
		}
		if err := sp.restore(r); err != nil {
			return err
		}
	}
	return nil
}
