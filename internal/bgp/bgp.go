// Package bgp implements a simplified BGP-4 on top of the netsim
// simulator: per-AS speakers with eBGP sessions along topology links,
// Adj-RIB-In / Loc-RIB structures, Gao-Rexford export policies, and
// best-path selection.
//
// Its role in this repository is to carry the DISCS-Ad (§IV-B of the
// paper): an optional transitive path attribute announcing a DAS and
// its controller address. Legacy ASes forward the attribute without
// understanding it — exactly the property DISCS relies on for
// Internet-wide, incrementally-deployable discovery.
package bgp

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"discs/internal/netsim"
	"discs/internal/topology"
)

// Path attribute flags (RFC 4271 §4.3).
const (
	AttrFlagOptional   = 0x80
	AttrFlagTransitive = 0x40
)

// AttrCodeDISCSAd is the (to-be-IANA-assigned) path attribute type
// code for the DISCS advertisement.
const AttrCodeDISCSAd = 0xF0

// Attr is a BGP path attribute. Unrecognized optional transitive
// attributes are retained and propagated (RFC 4271 §5), which is what
// lets DISCS-Ads cross legacy ASes.
type Attr struct {
	Flags uint8
	Code  uint8
	Data  []byte
}

// DISCSAd is the payload of a DISCS advertisement: the origin DAS and
// the name (or address) of its controller.
type DISCSAd struct {
	Origin     topology.ASN
	Controller string
}

// Encode serializes the Ad into attribute data.
func (ad DISCSAd) Encode() []byte {
	b := make([]byte, 4+len(ad.Controller))
	binary.BigEndian.PutUint32(b[:4], uint32(ad.Origin))
	copy(b[4:], ad.Controller)
	return b
}

// DecodeDISCSAd parses attribute data into a DISCSAd.
func DecodeDISCSAd(b []byte) (DISCSAd, error) {
	if len(b) < 4 {
		return DISCSAd{}, fmt.Errorf("bgp: DISCS-Ad too short (%d bytes)", len(b))
	}
	return DISCSAd{
		Origin:     topology.ASN(binary.BigEndian.Uint32(b[:4])),
		Controller: string(b[4:]),
	}, nil
}

// NewDISCSAdAttr wraps an Ad in an optional transitive attribute.
func NewDISCSAdAttr(ad DISCSAd) Attr {
	return Attr{Flags: AttrFlagOptional | AttrFlagTransitive, Code: AttrCodeDISCSAd, Data: ad.Encode()}
}

// Update is a BGP UPDATE message for a single prefix.
//
// An Update is immutable once sent. One export builds a single Update
// and sends that value to every neighbor it targets, and receivers
// keep its ASPath and Attrs as their Adj-RIB-In route's own, so
// neither slice may be modified in place after sending — not even by
// append, which could write into the shared backing array.
type Update struct {
	Prefix    netip.Prefix
	Withdrawn bool
	ASPath    []topology.ASN
	Attrs     []Attr

	id     prefixID     // Prefix's dense id in the sending network
	sender topology.ASN // the exporting speaker
}

// Size approximates the wire size for netsim bandwidth accounting.
func (u *Update) Size() int {
	n := 23 + 5 + 2*len(u.ASPath) // header + NLRI + AS path
	for _, a := range u.Attrs {
		n += 3 + len(a.Data)
	}
	return n
}

// Route is an entry in a RIB. Routes are immutable values: ASPath
// and Attrs are shared with the UPDATE that carried them, with every
// other neighbor that received it, and with the routes of other
// speakers, possibly on other parsim lanes. A changed route is a new
// Route, never an edit of an existing one.
//
// Local sits next to From so a Route fits the 96-byte size class.
type Route struct {
	Prefix  netip.Prefix
	ASPath  []topology.ASN // first element is the neighbor the route came from
	Attrs   []Attr
	From    topology.ASN // advertising neighbor; 0 for locally originated
	Local   bool
	FromRel topology.Relationship // relationship of the hop to From (our perspective)
}

// preferenceClass ranks routes by business preference: customer routes
// earn money (best), then peers, then providers.
func (r *Route) preferenceClass() int {
	if r.Local {
		return 3
	}
	switch r.FromRel {
	case topology.ProviderToCustomer: // From is our customer
		return 2
	case topology.PeerToPeer:
		return 1
	default: // From is our provider
		return 0
	}
}

// better reports whether r is preferred over s: local > customer >
// peer > provider, then shorter AS path, then lower neighbor ASN.
func (r *Route) better(s *Route) bool {
	if s == nil {
		return true
	}
	if a, b := r.preferenceClass(), s.preferenceClass(); a != b {
		return a > b
	}
	if len(r.ASPath) != len(s.ASPath) {
		return len(r.ASPath) < len(s.ASPath)
	}
	return r.From < s.From
}

// AdHandler receives DISCS-Ads extracted from propagated updates.
type AdHandler func(ad DISCSAd)

// Speaker is the BGP process of one AS, attached to one netsim node
// (the AS's border-router abstraction).
type Speaker struct {
	ASN  topology.ASN
	node *netsim.Node

	nbrs []neighbor // eBGP sessions, sorted by ASN

	// rib holds one entry per prefix, indexed by the prefix's id in
	// prefixes, the table shared with every speaker this one
	// exchanges UPDATEs with.
	prefixes *prefixTable
	rib      []ribEntry

	adHandlers []AdHandler
	seenAds    map[topology.ASN]string // dedup: origin -> controller

	// Stats.
	UpdatesSent, UpdatesRecv uint64
}

// newSpeaker creates a speaker for asn on node. Neighbors are attached
// with AddNeighbor. Speakers that exchange UPDATEs share one prefix
// table, the network's.
func newSpeaker(asn topology.ASN, node *netsim.Node, prefixes *prefixTable) *Speaker {
	s := &Speaker{
		ASN:      asn,
		node:     node,
		prefixes: prefixes,
		seenAds:  make(map[topology.ASN]string),
	}
	node.SetHandler(netsim.HandlerFunc(s.receive))
	node.Meta["bgp"] = s
	return s
}

// Node returns the netsim node this speaker runs on.
func (s *Speaker) Node() *netsim.Node { return s.node }

// AddNeighbor declares an eBGP session to the neighbor speaker's node.
// rel is the relationship of the hop from this AS to the neighbor.
func (s *Speaker) AddNeighbor(asn topology.ASN, node *netsim.Node, rel topology.Relationship) {
	nb := neighbor{asn: asn, node: node, rel: rel}
	// BuildNetwork adds neighbors in ascending order almost always, so
	// the common case is an append.
	if n := len(s.nbrs); n == 0 || s.nbrs[n-1].asn < asn {
		s.nbrs = append(s.nbrs, nb)
		return
	}
	if i, ok := s.neighborIndex(asn); ok {
		s.nbrs[i] = nb
	} else {
		s.nbrs = slices.Insert(s.nbrs, i, nb)
	}
}

// neighborIndex returns the index of the session to asn, or the index
// it would be inserted at.
func (s *Speaker) neighborIndex(asn topology.ASN) (int, bool) {
	return slices.BinarySearchFunc(s.nbrs, asn, func(nb neighbor, a topology.ASN) int { return cmp.Compare(nb.asn, a) })
}

// entry returns the RIB entry of prefix id, growing the RIB to cover
// every prefix the network has assigned an id to.
func (s *Speaker) entry(id prefixID) *ribEntry {
	if int(id) >= len(s.rib) {
		s.rib = append(s.rib, make([]ribEntry, len(s.prefixes.prefixes)-len(s.rib))...)
	}
	return &s.rib[id]
}

// lookup returns the RIB entry for p, or nil if the speaker has none.
func (s *Speaker) lookup(p netip.Prefix) (prefixID, *ribEntry) {
	id, ok := s.prefixes.ids[p.Masked()]
	if !ok || int(id) >= len(s.rib) {
		return 0, nil
	}
	return id, &s.rib[id]
}

// OnAd registers a handler invoked once per newly learned DISCS-Ad
// (deduplicated by origin+controller).
func (s *Speaker) OnAd(h AdHandler) { s.adHandlers = append(s.adHandlers, h) }

// Originate installs a locally originated route and announces it to
// neighbors according to export policy. It assigns the prefix its
// network-wide id, so it must run while the simulator is parked.
func (s *Speaker) Originate(p netip.Prefix, attrs ...Attr) {
	p = p.Masked()
	id := s.prefixes.intern(p)
	r := &Route{Prefix: p, Local: true, Attrs: attrs}
	s.entry(id).best = r
	s.export(id, r)
}

// ReOriginate re-announces an already-originated prefix with new
// attributes. The paper's DISCS-Ad bootstrap uses this: the update
// prepends the origin AS so legacy routers accept a changed route
// without reachability impact (§IV-B).
func (s *Speaker) ReOriginate(p netip.Prefix, attrs ...Attr) error {
	id, e := s.lookup(p)
	if e == nil || e.best == nil || !e.best.Local {
		return fmt.Errorf("bgp: AS%d does not originate %v", s.ASN, p.Masked())
	}
	r := &Route{Prefix: e.best.Prefix, Local: true, Attrs: attrs}
	e.best = r
	s.export(id, r)
	return nil
}

// LocRib returns the current best route for p, or nil.
func (s *Speaker) LocRib(p netip.Prefix) *Route {
	if _, e := s.lookup(p); e != nil {
		return e.best
	}
	return nil
}

// SessionDown handles the loss of an eBGP session (link failure or
// neighbor death): every route learned from that neighbor is flushed
// from the Adj-RIB-In and the decision process reruns, issuing
// withdrawals or switching to backup paths as needed. The session
// configuration is retained so SessionUp can restore it.
func (s *Speaker) SessionDown(neighbor topology.ASN) {
	var affected []prefixID
	for id := range s.rib {
		if s.rib[id].drop(neighbor) {
			affected = append(affected, prefixID(id))
		}
	}
	s.prefixes.sortByString(affected)
	for _, id := range affected {
		s.decide(id)
	}
}

// SessionUp re-advertises the full Loc-RIB to a restored neighbor (the
// initial-exchange behavior of a fresh BGP session).
func (s *Speaker) SessionUp(neighbor topology.ASN) {
	i, ok := s.neighborIndex(neighbor)
	if !ok {
		return
	}
	nb := &s.nbrs[i]
	for _, id := range s.routeIDs() {
		if r := s.rib[id].best; exportsTo(r, nb) {
			if s.node.SendTo(nb.node, s.announcement(id, r)) {
				s.UpdatesSent++
			}
		}
	}
}

// Routes returns all Loc-RIB prefixes, sorted for determinism.
func (s *Speaker) Routes() []netip.Prefix {
	ids := s.routeIDs()
	out := make([]netip.Prefix, len(ids))
	for i, id := range ids {
		out[i] = s.prefixes.prefixes[id]
	}
	return out
}

// routeIDs returns the ids of every Loc-RIB prefix in Routes order.
func (s *Speaker) routeIDs() []prefixID {
	ids := s.ribIDs(hasRoute)
	s.prefixes.sortByString(ids)
	return ids
}

// ribIDs returns, in id order, the ids of the RIB entries keep selects.
func (s *Speaker) ribIDs(keep func(*ribEntry) bool) []prefixID {
	var ids []prefixID
	for id := range s.rib {
		if keep(&s.rib[id]) {
			ids = append(ids, prefixID(id))
		}
	}
	return ids
}

// announcement builds the UPDATE that exports r: our ASN prepended to
// a fresh copy of its path.
func (s *Speaker) announcement(id prefixID, r *Route) *Update {
	path := make([]topology.ASN, len(r.ASPath)+1)
	path[0] = s.ASN
	copy(path[1:], r.ASPath)
	return &Update{Prefix: r.Prefix, ASPath: path, Attrs: r.Attrs, id: id, sender: s.ASN}
}

// export sends the route to all permitted neighbors, in ASN order, as
// one UPDATE shared by all of them.
func (s *Speaker) export(id prefixID, r *Route) {
	var u *Update
	for i := range s.nbrs {
		nb := &s.nbrs[i]
		if !exportsTo(r, nb) {
			continue
		}
		if u == nil {
			u = s.announcement(id, r)
		}
		if s.node.SendTo(nb.node, u) {
			s.UpdatesSent++
		}
	}
}

// exportWithdraw notifies the neighbors that received route old that
// it is gone, except those the replacement best (nil if none) is
// exported to: they get the new announcement instead.
func (s *Speaker) exportWithdraw(id prefixID, old, best *Route) {
	var u *Update
	for i := range s.nbrs {
		nb := &s.nbrs[i]
		if !exportsTo(old, nb) || (best != nil && exportsTo(best, nb)) {
			continue
		}
		if u == nil {
			u = &Update{Prefix: old.Prefix, Withdrawn: true, id: id, sender: s.ASN}
		}
		if s.node.SendTo(nb.node, u) {
			s.UpdatesSent++
		}
	}
}

// receive processes an incoming UPDATE.
func (s *Speaker) receive(from *netsim.Node, _ *netsim.Link, msg netsim.Message) {
	u, ok := msg.(*Update)
	if !ok {
		return
	}
	s.UpdatesRecv++
	i, found := s.neighborIndex(u.sender)
	if !found || s.nbrs[i].node != from {
		return // not a configured session
	}
	// Loop prevention.
	for _, hop := range u.ASPath {
		if hop == s.ASN {
			return
		}
	}
	// Surface any DISCS-Ads regardless of best-path outcome: the
	// controller learns about DASes from every update carrying the
	// attribute (the Ad is informational, not a routing input).
	s.extractAds(u.Attrs)

	e := s.entry(u.id)
	if u.Withdrawn {
		e.drop(u.sender)
	} else {
		e.put(&Route{
			Prefix:  u.Prefix,
			ASPath:  u.ASPath,
			Attrs:   u.Attrs,
			From:    u.sender,
			FromRel: s.nbrs[i].rel,
		})
	}
	s.decide(u.id)
}

// decide recomputes the best path for prefix id and exports on change.
// A changed attribute set on the same best path also triggers export
// so re-originated DISCS-Ads propagate.
func (s *Speaker) decide(id prefixID) {
	e := &s.rib[id]
	cur := e.best
	if cur != nil && cur.Local {
		return // local routes always win
	}
	var best *Route
	for _, r := range e.cands {
		if r.better(best) {
			best = r
		}
	}
	if best == nil {
		if cur != nil {
			e.best = nil
			s.exportWithdraw(id, cur, nil)
		}
		return
	}
	if cur != nil && routesEqual(cur, best) {
		return
	}
	e.best = best
	// When the best path's provenance changes, the Gao-Rexford export
	// set can shrink (e.g. customer route → provider route is no longer
	// announced to providers/peers): retract from neighbors that held
	// the old announcement but are outside the new export set.
	if cur != nil {
		s.exportWithdraw(id, cur, best)
	}
	s.export(id, best)
}

func routesEqual(a, b *Route) bool {
	if a.From != b.From || len(a.ASPath) != len(b.ASPath) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.ASPath {
		if a.ASPath[i] != b.ASPath[i] {
			return false
		}
	}
	for i := range a.Attrs {
		if a.Attrs[i].Code != b.Attrs[i].Code || string(a.Attrs[i].Data) != string(b.Attrs[i].Data) {
			return false
		}
	}
	return true
}

// extractAds fires handlers for new DISCS-Ads. An Ad already seen is
// recognized without decoding it.
func (s *Speaker) extractAds(attrs []Attr) {
	for _, a := range attrs {
		if a.Code != AttrCodeDISCSAd || len(a.Data) < 4 {
			continue
		}
		if s.seenAds[topology.ASN(binary.BigEndian.Uint32(a.Data))] == string(a.Data[4:]) {
			continue
		}
		ad, _ := DecodeDISCSAd(a.Data)
		s.seenAds[ad.Origin] = ad.Controller
		for _, h := range s.adHandlers {
			h(ad)
		}
	}
}

// KnownAds returns the deduplicated DISCS-Ads this speaker has seen,
// sorted by origin ASN.
func (s *Speaker) KnownAds() []DISCSAd {
	out := make([]DISCSAd, 0, len(s.seenAds))
	for o, c := range s.seenAds {
		out = append(out, DISCSAd{Origin: o, Controller: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}
